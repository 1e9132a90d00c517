#include "layers.hh"

#include <array>
#include <thread>
#include <vector>

#include "core/monitoring_set.hh"
#include "core/ready_set.hh"
#include "emu/emu_hyperplane.hh"
#include "gen.hh"
#include "measure.hh"
#include "mem/memory_system.hh"
#include "queueing/mpmc_queue.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace perfbench {

namespace hp = hyperplane;

namespace {

/** Results of timed loops land here so the loops cannot be elided. */
volatile std::uint64_t gSink = 0;

/** Median over @p reps of ns per unit of @p body (thread CPU time). */
template <typename Body>
double
medianNs(unsigned reps, std::uint64_t units, Body &&body)
{
    std::vector<double> ns;
    for (unsigned r = 0; r < reps; ++r) {
        const double c0 = threadCpuSec();
        body();
        ns.push_back((threadCpuSec() - c0) * 1e9 /
                     static_cast<double>(units));
    }
    return median(ns);
}

/** Self-rescheduling no-op event: a fixed-size pending population. */
struct Ticker
{
    hp::EventQueue *eq = nullptr;
    const std::array<hp::Tick, 1024> *deltas = nullptr;
    std::size_t i = 0;

    void
    fire()
    {
        i = (i + 1) & 1023;
        eq->scheduleIn((*deltas)[i], [this] { fire(); });
    }
};

} // namespace

double
eventKernelNsPerEvent(unsigned pending, std::uint64_t events, unsigned reps)
{
    std::array<hp::Tick, 1024> deltas{};
    hp::Rng rng(7);
    for (auto &d : deltas)
        d = 1 + rng.uniformInt(2 * pending);
    return medianNs(reps, events, [&] {
        hp::EventQueue eq;
        std::vector<Ticker> tickers(pending);
        for (unsigned k = 0; k < pending; ++k) {
            tickers[k] = Ticker{&eq, &deltas, k};
            eq.schedule(deltas[k], [t = &tickers[k]] { t->fire(); });
        }
        std::uint64_t n = 0;
        while (n < events && eq.step())
            ++n;
    });
}

double
memNsPerAccess(unsigned cores, std::uint64_t footprintLines,
               std::uint64_t accesses, std::uint64_t seed, unsigned reps)
{
    struct Op
    {
        hp::CoreId core;
        hp::Addr addr;
        std::uint8_t kind; ///< 0 read, 1 write, 2 atomic
    };
    std::vector<Op> ops(1u << 16);
    hp::Rng rng(seed);
    const std::uint64_t lines = std::max<std::uint64_t>(footprintLines, 64);
    for (auto &op : ops) {
        op.core = static_cast<hp::CoreId>(rng.uniformInt(cores));
        op.addr = 0x100000 + rng.uniformInt(lines) * hp::cacheLineBytes;
        const double u = rng.uniform();
        op.kind = u < 0.6 ? 0 : u < 0.9 ? 1 : 2;
    }
    const hp::mem::CacheGeometry l1{32 * 1024, 4, hp::cacheLineBytes};
    const hp::mem::CacheGeometry llc{16ull * 1024 * 1024, 16,
                                     hp::cacheLineBytes};
    hp::mem::MemorySystem mem(cores, l1, llc);
    // Warm the footprint once so every repetition sees a steady state.
    for (const auto &op : ops)
        mem.read(op.core, op.addr);
    hp::Tick sink = 0;
    const double ns = medianNs(reps, accesses, [&] {
        for (std::uint64_t i = 0; i < accesses; ++i) {
            const Op &op = ops[i & (ops.size() - 1)];
            sink += op.kind == 0   ? mem.read(op.core, op.addr).latency
                    : op.kind == 1 ? mem.write(op.core, op.addr).latency
                                   : mem.atomicRmw(op.core, op.addr).latency;
        }
    });
    gSink = sink;
    return ns;
}

double
coreNsPerNotify(unsigned queues, std::uint64_t notifies, std::uint64_t seed,
                unsigned reps)
{
    hp::core::MonitoringSetConfig mc;
    mc.capacity = std::max(64u, queues + queues / 4);
    hp::core::MonitoringSet mon(mc);
    hp::core::ReadySetConfig rc;
    rc.capacity = std::max(64u, queues);
    hp::core::ReadySet ready(rc);
    const auto doorbell = [](unsigned q) {
        return hp::Addr{0x40000000} + hp::Addr{q} * hp::cacheLineBytes;
    };
    for (unsigned q = 0; q < queues; ++q) {
        mon.insert(doorbell(q), static_cast<hp::QueueId>(q));
        ready.enable(static_cast<hp::QueueId>(q));
    }
    std::vector<unsigned> order(4096);
    hp::Rng rng(seed);
    for (auto &q : order)
        q = static_cast<unsigned>(rng.uniformInt(queues));
    std::uint64_t sink = 0;
    const double ns = medianNs(reps, notifies, [&] {
        for (std::uint64_t i = 0; i < notifies; ++i) {
            const hp::Addr line = doorbell(order[i & 4095]);
            if (const auto qid = mon.onWriteTransaction(line))
                ready.activate(*qid);
            if (const auto g = ready.selectNext()) {
                sink += *g;
                mon.arm(doorbell(*g));
            }
        }
    });
    gSink = sink;
    return ns;
}

double
emuHandoffNs(std::uint64_t roundTrips, unsigned reps)
{
    std::vector<double> ns;
    for (unsigned r = 0; r < reps; ++r) {
        hp::emu::EmuHyperPlane ping(1), pong(1);
        const auto qa = ping.addQueue();
        const auto qb = pong.addQueue();
        std::thread echo([&] {
            for (std::uint64_t i = 0; i < roundTrips; ++i) {
                while (!(ping.qwait() && ping.take(*qa) == 1)) {
                }
                pong.ring(*qb);
            }
        });
        const double t0 = wallSec();
        for (std::uint64_t i = 0; i < roundTrips; ++i) {
            ping.ring(*qa);
            while (!(pong.qwait() && pong.take(*qb) == 1)) {
            }
        }
        const double dt = wallSec() - t0;
        echo.join();
        ns.push_back(dt * 1e9 / (2.0 * static_cast<double>(roundTrips)));
    }
    return median(ns);
}

double
mpmcNsPerOp(std::uint64_t ops, unsigned reps)
{
    hp::queueing::MpmcQueue<std::uint64_t> q(1024);
    std::uint64_t sink = 0;
    const double ns = medianNs(reps, ops, [&] {
        for (std::uint64_t i = 0; i < ops / 2; ++i) {
            q.tryPush(std::uint64_t{i});
            sink += q.tryPop().value_or(0);
        }
    });
    gSink = sink;
    return ns;
}

double
appNsPerReq(hp::app::AppKind kind, unsigned numFlows, hp::traffic::Shape shape,
            std::uint64_t seed, std::uint64_t requests, unsigned reps)
{
    constexpr unsigned shards = 16;
    constexpr std::size_t slot = 64;
    TenantLoad load;
    load.numFlows = numFlows;
    load.shape = shape;
    TenantTraffic flows(load, seed);
    std::vector<std::uint64_t> flowSeq(numFlows, 0);
    // Pre-synthesized requests so only handle() is timed.
    const std::size_t n = std::min<std::uint64_t>(requests, 1u << 15);
    std::vector<std::uint8_t> buf(n * slot);
    std::vector<hp::app::AppRequest> reqs(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t f = flows.pickFlow();
        auto &r = reqs[i];
        r.flowId = f;
        r.seq = i;
        r.nowNs = i * 1000;
        r.payload = buf.data() + i * slot;
        r.payloadLen = static_cast<std::uint32_t>(hp::app::synthesizeRequest(
            kind, f, flowSeq[f]++, 1, buf.data() + i * slot, slot));
    }
    hp::app::AppConfig cfg;
    cfg.numShards = shards;
    std::uint8_t out[256];
    std::uint64_t sink = 0;
    std::vector<double> ns;
    for (unsigned rep = 0; rep < reps; ++rep) {
        auto handler = hp::app::makeHandler(kind, cfg);
        const double c0 = threadCpuSec();
        for (std::uint64_t i = 0; i < requests; ++i) {
            const auto &r = reqs[i % n];
            sink += handler->handle(r.flowId % shards, r, out, sizeof(out))
                        .payloadLen;
        }
        ns.push_back((threadCpuSec() - c0) * 1e9 /
                     static_cast<double>(requests));
    }
    gSink = sink;
    return median(ns);
}

} // namespace perfbench
