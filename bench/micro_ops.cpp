/**
 * @file
 * Google-benchmark micro-benchmarks of the library's hot operations:
 * the simulation kernel, the accelerator structures, and the real
 * workload computations that calibrate the timing model.
 */

#include <benchmark/benchmark.h>

#include <string>

#include "codes/raid.hh"
#include "codes/reed_solomon.hh"
#include "core/monitoring_set.hh"
#include "core/ppa.hh"
#include "core/ready_set.hh"
#include "crypto/aes.hh"
#include "crypto/cbc.hh"
#include "net/checksum.hh"
#include "net/simd/dispatch.hh"
#include "queueing/doorbell.hh"
#include "server/wire.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "stats/histogram.hh"
#include "workloads/packet_encapsulation.hh"

using namespace hyperplane;

namespace {

void
BM_EventQueueScheduleDispatch(benchmark::State &state)
{
    EventQueue eq;
    for (auto _ : state) {
        eq.scheduleIn(10, [] {});
        eq.step();
    }
    benchmark::DoNotOptimize(eq.dispatched());
}
BENCHMARK(BM_EventQueueScheduleDispatch);

void
BM_RngExponential(benchmark::State &state)
{
    Rng rng(1);
    double sink = 0;
    for (auto _ : state)
        sink += rng.exponential(1.0);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngExponential);

void
BM_MonitoringSetSnoop(benchmark::State &state)
{
    core::MonitoringSetConfig cfg;
    cfg.capacity = 1024;
    core::MonitoringSet ms(cfg);
    const unsigned n = static_cast<unsigned>(state.range(0));
    for (unsigned i = 0; i < n; ++i)
        ms.insert(queueing::AddressMap::doorbellAddr(i), i);
    unsigned i = 0;
    for (auto _ : state) {
        const Addr a = queueing::AddressMap::doorbellAddr(i++ % n);
        benchmark::DoNotOptimize(ms.onWriteTransaction(a));
        ms.arm(a);
    }
}
BENCHMARK(BM_MonitoringSetSnoop)->Arg(64)->Arg(1000);

void
BM_MonitoringSetInsertRemove(benchmark::State &state)
{
    core::MonitoringSetConfig cfg;
    cfg.capacity = 1024;
    core::MonitoringSet ms(cfg);
    for (unsigned i = 0; i < 900; ++i)
        ms.insert(queueing::AddressMap::doorbellAddr(i), i);
    for (auto _ : state) {
        ms.insert(queueing::AddressMap::doorbellAddr(1000), 1000);
        ms.remove(queueing::AddressMap::doorbellAddr(1000));
    }
}
BENCHMARK(BM_MonitoringSetInsertRemove);

void
BM_PpaSelectWordScan(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    core::BitVec ready(n);
    Rng rng(2);
    for (unsigned i = 0; i < n / 8; ++i)
        ready.set(static_cast<unsigned>(rng.uniformInt(n)));
    core::BrentKungPpa ppa;
    unsigned p = 0;
    for (auto _ : state) {
        const int g = ppa.select(ready, p);
        benchmark::DoNotOptimize(g);
        p = g >= 0 ? (g + 1) % n : 0;
    }
}
BENCHMARK(BM_PpaSelectWordScan)->Arg(64)->Arg(1024)->Arg(4096);

void
BM_PpaSelectGateLevel(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    core::BitVec ready(n);
    Rng rng(2);
    for (unsigned i = 0; i < n / 8; ++i)
        ready.set(static_cast<unsigned>(rng.uniformInt(n)));
    core::BrentKungPpa ppa;
    for (auto _ : state)
        benchmark::DoNotOptimize(ppa.selectPrefixNetwork(ready, 7));
}
BENCHMARK(BM_PpaSelectGateLevel)->Arg(1024);

void
BM_ReadySetGrantCycle(benchmark::State &state)
{
    core::ReadySetConfig cfg;
    cfg.capacity = 1024;
    core::ReadySet rs(cfg);
    unsigned q = 0;
    for (auto _ : state) {
        rs.activate(q % 1024);
        benchmark::DoNotOptimize(rs.selectNext());
        q += 37;
    }
}
BENCHMARK(BM_ReadySetGrantCycle);

void
BM_AesCbc256Encrypt(benchmark::State &state)
{
    std::uint8_t key[32] = {1, 2, 3};
    crypto::Aes aes(key, sizeof(key));
    crypto::Iv iv{};
    std::vector<std::uint8_t> buf(state.range(0), 0xab);
    for (auto _ : state)
        crypto::cbcEncryptAligned(aes, iv, buf.data(), buf.size());
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCbc256Encrypt)->Arg(1024);

void
BM_ReedSolomonEncode(benchmark::State &state)
{
    codes::ReedSolomon rs(6, 3);
    std::vector<codes::Shard> data(6, codes::Shard(state.range(0), 7));
    for (auto _ : state)
        benchmark::DoNotOptimize(rs.encode(data));
    state.SetBytesProcessed(state.iterations() * state.range(0) * 6);
}
BENCHMARK(BM_ReedSolomonEncode)->Arg(171); // ~1 KiB payload / 6 shards

void
BM_Raid6ParityPQ(benchmark::State &state)
{
    codes::Raid6 raid(8);
    std::vector<codes::Block> stripe(8, codes::Block(state.range(0), 3));
    for (auto _ : state)
        benchmark::DoNotOptimize(raid.computePQ(stripe));
    state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_Raid6ParityPQ)->Arg(128);

void
BM_Crc32c(benchmark::State &state)
{
    std::vector<std::uint8_t> buf(state.range(0), 0x5a);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            net::crc32c(buf.data(), buf.size()));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(1024);

// --- SIMD kernel layer: one bench per variant per kernel, so a run on
// capable hardware reports the scalar/SSE/AVX2 spread directly.  A
// variant the build or host lacks skips with an annotation.

void
benchChecksumVariant(benchmark::State &state,
                     net::simd::ChecksumPartialFn fn, const char *name)
{
    if (!fn) {
        state.SkipWithError(
            (std::string(name) + " unavailable on this host").c_str());
        return;
    }
    std::vector<std::uint8_t> buf(state.range(0), 0x5a);
    for (auto _ : state)
        benchmark::DoNotOptimize(fn(buf.data(), buf.size(), 0));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}

void
BM_ChecksumScalar(benchmark::State &state)
{
    benchChecksumVariant(
        state, net::simd::scalarKernels().checksumPartial, "scalar");
}
BENCHMARK(BM_ChecksumScalar)->Arg(64)->Arg(1500);

void
BM_ChecksumSse2(benchmark::State &state)
{
    benchChecksumVariant(state, net::simd::checksumPartialSse2(),
                         "sse2");
}
BENCHMARK(BM_ChecksumSse2)->Arg(64)->Arg(1500);

void
BM_ChecksumAvx2(benchmark::State &state)
{
    benchChecksumVariant(state, net::simd::checksumPartialAvx2(),
                         "avx2");
}
BENCHMARK(BM_ChecksumAvx2)->Arg(64)->Arg(1500);

void
BM_ChecksumDispatched(benchmark::State &state)
{
    benchChecksumVariant(state, net::simd::kernels().checksumPartial,
                         "dispatched");
}
BENCHMARK(BM_ChecksumDispatched)->Arg(64)->Arg(1500);

void
BM_Crc32cScalar(benchmark::State &state)
{
    std::vector<std::uint8_t> buf(state.range(0), 0x5a);
    const auto fn = net::simd::scalarKernels().crc32c;
    for (auto _ : state)
        benchmark::DoNotOptimize(fn(buf.data(), buf.size(), 0));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32cScalar)->Arg(1024);

void
BM_Crc32cSse42(benchmark::State &state)
{
    const auto fn = net::simd::crc32cSse42();
    if (!fn) {
        state.SkipWithError("sse4.2 crc32 unavailable on this host");
        return;
    }
    std::vector<std::uint8_t> buf(state.range(0), 0x5a);
    for (auto _ : state)
        benchmark::DoNotOptimize(fn(buf.data(), buf.size(), 0));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32cSse42)->Arg(1024);

void
benchHeaderCheckVariant(benchmark::State &state,
                        net::simd::HeaderCheckFn fn, const char *name)
{
    if (!fn) {
        state.SkipWithError(
            (std::string(name) + " unavailable on this host").c_str());
        return;
    }
    // A realistic RX burst: 32 valid request headers.
    constexpr std::size_t n = 32;
    server::wire::RequestHeader hdr;
    hdr.payloadLen = 0;
    std::vector<std::vector<std::uint8_t>> storage(n);
    std::vector<const std::uint8_t *> pkts(n);
    std::vector<std::uint32_t> lens(n);
    for (std::size_t i = 0; i < n; ++i) {
        storage[i].resize(server::wire::maxDatagramBytes);
        hdr.seq = i;
        const std::size_t len = server::wire::buildRequest(
            storage[i].data(), storage[i].size(), hdr, nullptr);
        pkts[i] = storage[i].data();
        lens[i] = static_cast<std::uint32_t>(len);
    }
    const std::uint8_t prefix[8] = {'H', 'P', 'R', 'Q',
                                    server::wire::wireVersion, 0, 0, 0};
    std::uint8_t ok[n];
    for (auto _ : state) {
        fn(pkts.data(), lens.data(), n, prefix,
           server::wire::numOpcodes,
           server::wire::RequestHeader::wireSize, ok);
        benchmark::DoNotOptimize(ok[0]);
    }
    state.SetItemsProcessed(state.iterations() * n);
}

void
BM_HeaderCheckScalar(benchmark::State &state)
{
    benchHeaderCheckVariant(
        state, net::simd::scalarKernels().headerCheck, "scalar");
}
BENCHMARK(BM_HeaderCheckScalar);

void
BM_HeaderCheckSse2(benchmark::State &state)
{
    benchHeaderCheckVariant(state, net::simd::headerCheckSse2(), "sse2");
}
BENCHMARK(BM_HeaderCheckSse2);

void
BM_GreEncapsulate(benchmark::State &state)
{
    workloads::PacketEncapsulation wl(1);
    queueing::WorkItem item;
    item.payloadBytes = 1024;
    for (auto _ : state) {
        ++item.seq;
        benchmark::DoNotOptimize(wl.encapsulate(item));
    }
}
BENCHMARK(BM_GreEncapsulate);

void
BM_LogHistogramRecord(benchmark::State &state)
{
    stats::LogHistogram h(0.01, 1.02, 2048);
    Rng rng(3);
    for (auto _ : state)
        h.record(rng.exponential(10.0));
    benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_LogHistogramRecord);

} // namespace

BENCHMARK_MAIN();
