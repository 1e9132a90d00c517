/**
 * @file
 * Performance trajectory tracker (not a figure reproduction).
 *
 * Times (a) representative single-point simulations, reporting host
 * wall-clock and simulated-events/sec straight off the kernel's
 * dispatch counter, (b) the hot-path SIMD kernels against their scalar
 * references, and (c) the full Figure 10 sweep at --jobs 1 and
 * --jobs N, byte-comparing the two JSON exports to prove the parallel
 * runner changes wall-clock only.  Results land in BENCH_perf_smoke.json
 * at the repo root (override with --out) so successive PRs can track
 * the simulator's own performance.
 *
 * --check exits nonzero if the jobs-1 and jobs-N sweeps differ, if any
 * built-in capture overflowed the callback inline buffer, if a
 * dispatched kernel disagrees with or runs under 0.8x of its scalar
 * reference, or — on hosts with >= 4 hardware threads — if the sweep
 * speedup falls below 2x.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dp/sdp_system.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "net/simd/dispatch.hh"
#include "server/wire.hh"
#include "sim/callback.hh"
#include "stats/json.hh"
#include "stats/table.hh"

using namespace hyperplane;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct SinglePoint
{
    const char *name;
    double wallSec;
    std::uint64_t events;
    double eventsPerSec;
    double throughputMtps;
    std::uint64_t dirLookups;
    std::uint64_t dirHits;
    std::uint64_t dirLines;
};

/** One timed run; events/sec uses the kernel's dispatch counter. */
SinglePoint
timePoint(const char *name, const dp::SdpConfig &cfg)
{
    dp::SdpSystem sys(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = sys.run();
    const double sec = secondsSince(t0);
    const std::uint64_t events = sys.eventQueue().dispatched();
    return {name,
            sec,
            events,
            events / sec,
            r.throughputMtps,
            sys.memory().dirLookups.value(),
            sys.memory().dirHits.value(),
            sys.memory().directoryLines()};
}

/**
 * Endpoints of the ext_core_scaling sweep (same config), timed here so
 * the tracked BENCH_perf_smoke.json records the per-event cost at 16
 * and 128 cores and their ratio alongside the other trajectory points.
 * Best-of-reps, same noise-robust estimator as the full sweep bench.
 */
struct ScalingEndpoint
{
    std::uint64_t events;
    double nsPerEvent;
};

ScalingEndpoint
timeScalingEndpoint(unsigned cores, unsigned reps)
{
    dp::SdpConfig cfg;
    cfg.plane = dp::PlaneKind::HyperPlane;
    cfg.org = dp::QueueOrg::ScaleOut;
    cfg.numCores = cores;
    cfg.numQueues = 8 * cores;
    cfg.workload = workloads::Kind::PacketEncapsulation;
    cfg.shape = traffic::Shape::FB;
    cfg.offeredRatePerSec = 4e5 * cores;
    cfg.warmupUs = 200.0;
    cfg.measureUs = 6000.0;
    cfg.seed = 97;

    ScalingEndpoint best{0, 0.0};
    for (unsigned rep = 0; rep < reps; ++rep) {
        dp::SdpSystem sys(cfg);
        const auto t0 = std::chrono::steady_clock::now();
        (void)sys.run();
        const double sec = secondsSince(t0);
        const std::uint64_t events = sys.eventQueue().dispatched();
        const double ns =
            events > 0 ? 1e9 * sec / static_cast<double>(events) : 0.0;
        if (rep == 0 || ns < best.nsPerEvent)
            best = {events, ns};
    }
    return best;
}

/**
 * Hand-rolled timing of one hot-path kernel: scalar reference vs the
 * dispatched variant over the same buffer, best-of-reps.  The tracked
 * JSON records the ratio so a dispatch regression (a future change
 * accidentally routing to a slower variant) shows up in the trajectory;
 * --check gates dispatched >= 0.8x scalar and result equality.
 */
struct KernelPoint
{
    const char *name;
    const char *variant; // dispatched variant name, for provenance
    double scalarNs;
    double dispatchedNs;
    double speedup;
    bool resultsMatch;
};

template <typename Fn>
double
bestOfNs(Fn &&fn, unsigned iters, unsigned reps)
{
    double best = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        for (unsigned i = 0; i < iters; ++i)
            fn();
        const double ns = 1e9 * secondsSince(t0) / iters;
        if (r == 0 || ns < best)
            best = ns;
    }
    return best;
}

std::vector<KernelPoint>
timeKernels()
{
    const auto &scalar = net::simd::scalarKernels();
    const auto &hot = net::simd::kernels();
    std::vector<std::uint8_t> buf(1500);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 131 + 7);
    constexpr unsigned iters = 20000, reps = 3;

    std::vector<KernelPoint> out;
    {
        volatile std::uint32_t sink = 0;
        const double s = bestOfNs(
            [&] { sink = scalar.checksumPartial(buf.data(), 1500, 0); },
            iters, reps);
        const double d = bestOfNs(
            [&] { sink = hot.checksumPartial(buf.data(), 1500, 0); },
            iters, reps);
        out.push_back({"checksum_1500B", hot.checksumName, s, d,
                       d > 0 ? s / d : 0.0,
                       scalar.checksumPartial(buf.data(), 1500, 0) ==
                           hot.checksumPartial(buf.data(), 1500, 0)});
    }
    {
        volatile std::uint32_t sink = 0;
        const double s = bestOfNs(
            [&] { sink = scalar.crc32c(buf.data(), 1024, 0); }, iters,
            reps);
        const double d = bestOfNs(
            [&] { sink = hot.crc32c(buf.data(), 1024, 0); }, iters,
            reps);
        out.push_back({"crc32c_1024B", hot.crc32cName, s, d,
                       d > 0 ? s / d : 0.0,
                       scalar.crc32c(buf.data(), 1024, 0) ==
                           hot.crc32c(buf.data(), 1024, 0)});
    }
    {
        // A 32-packet RX burst of valid request headers.
        constexpr std::size_t n = 32;
        server::wire::RequestHeader hdr;
        std::vector<std::vector<std::uint8_t>> storage(n);
        std::vector<const std::uint8_t *> pkts(n);
        std::vector<std::uint32_t> lens(n);
        for (std::size_t i = 0; i < n; ++i) {
            storage[i].resize(64);
            hdr.seq = i;
            lens[i] = static_cast<std::uint32_t>(
                server::wire::buildRequest(storage[i].data(),
                                           storage[i].size(), hdr,
                                           nullptr));
            pkts[i] = storage[i].data();
        }
        const std::uint8_t prefix[8] = {
            'H', 'P', 'R', 'Q', server::wire::wireVersion, 0, 0, 0};
        std::uint8_t okScalar[n], okHot[n];
        const auto run = [&](net::simd::HeaderCheckFn fn,
                             std::uint8_t *ok) {
            fn(pkts.data(), lens.data(), n, prefix,
               server::wire::numOpcodes,
               server::wire::RequestHeader::wireSize, ok);
        };
        const double s = bestOfNs(
            [&] { run(scalar.headerCheck, okScalar); }, iters, reps);
        const double d =
            bestOfNs([&] { run(hot.headerCheck, okHot); }, iters, reps);
        run(scalar.headerCheck, okScalar);
        run(hot.headerCheck, okHot);
        bool match = true;
        for (std::size_t i = 0; i < n; ++i)
            match &= (okScalar[i] != 0) == (okHot[i] != 0);
        out.push_back({"header_check_32pkt", hot.headerCheckName, s, d,
                       d > 0 ? s / d : 0.0, match});
    }
    return out;
}

/** The Figure 10 series grid (both panels), verbatim. */
std::vector<harness::SweepSeries>
fig10Series()
{
    struct Def
    {
        const char *name;
        traffic::Shape shape;
        dp::PlaneKind plane;
        dp::QueueOrg org;
        double imbalance;
    };
    const Def defs[] = {
        {"fb-spin-out", traffic::Shape::FB, dp::PlaneKind::Spinning,
         dp::QueueOrg::ScaleOut, 0.0},
        {"fb-spin-up2", traffic::Shape::FB, dp::PlaneKind::Spinning,
         dp::QueueOrg::ScaleUp2, 0.0},
        {"fb-spin-up4", traffic::Shape::FB, dp::PlaneKind::Spinning,
         dp::QueueOrg::ScaleUpAll, 0.0},
        {"fb-hp-out", traffic::Shape::FB, dp::PlaneKind::HyperPlane,
         dp::QueueOrg::ScaleOut, 0.0},
        {"fb-hp-up2", traffic::Shape::FB, dp::PlaneKind::HyperPlane,
         dp::QueueOrg::ScaleUp2, 0.0},
        {"fb-hp-up4", traffic::Shape::FB, dp::PlaneKind::HyperPlane,
         dp::QueueOrg::ScaleUpAll, 0.0},
        {"pc-spin-out", traffic::Shape::PC, dp::PlaneKind::Spinning,
         dp::QueueOrg::ScaleOut, 0.0},
        {"pc-spin-out-imb", traffic::Shape::PC, dp::PlaneKind::Spinning,
         dp::QueueOrg::ScaleOut, 0.10},
        {"pc-spin-up2", traffic::Shape::PC, dp::PlaneKind::Spinning,
         dp::QueueOrg::ScaleUp2, 0.0},
        {"pc-hp-out", traffic::Shape::PC, dp::PlaneKind::HyperPlane,
         dp::QueueOrg::ScaleOut, 0.0},
        {"pc-hp-out-imb", traffic::Shape::PC, dp::PlaneKind::HyperPlane,
         dp::QueueOrg::ScaleOut, 0.10},
        {"pc-hp-up2", traffic::Shape::PC, dp::PlaneKind::HyperPlane,
         dp::QueueOrg::ScaleUp2, 0.0},
    };

    std::vector<harness::SweepSeries> series;
    for (const auto &d : defs) {
        dp::SdpConfig cfg;
        cfg.numCores = 4;
        cfg.numQueues = 400;
        cfg.workload = workloads::Kind::PacketEncapsulation;
        cfg.shape = d.shape;
        cfg.plane = d.plane;
        cfg.org = d.org;
        cfg.imbalance = d.imbalance;
        cfg.warmupUs = 1500.0;
        cfg.measureUs = 8000.0;
        cfg.seed = 41;
        series.push_back({d.name, cfg});
    }
    return series;
}

std::string
sweepJson(unsigned jobs, double &wallSec)
{
    const std::vector<double> loads{0.1, 0.3, 0.5, 0.7, 0.9};
    const auto t0 = std::chrono::steady_clock::now();
    const auto sweeps =
        harness::runLoadSweeps(fig10Series(), loads, jobs);
    wallSec = secondsSince(t0);
    std::vector<harness::NamedSweep> named;
    for (const auto &sw : sweeps)
        named.push_back({sw.name, sw.points});
    return harness::loadSweepJson(named);
}

} // namespace

int
main(int argc, char **argv)
{
    harness::printExperimentBanner(
        "perf_smoke", "simulator wall-clock trajectory: single-point "
                      "events/sec + fig10 sweep scaling");

    const bool check = harness::argPresent(argc, argv, "--check");
    const char *outPath = harness::argValue(argc, argv, "--out");
    if (outPath == nullptr)
        outPath = "BENCH_perf_smoke.json";
    const unsigned hw = std::thread::hardware_concurrency();
    unsigned jobs = harness::jobsFromArgs(argc, argv);
    if (jobs == 1 && hw > 1)
        jobs = hw;

    // --- Single-point runs -------------------------------------------
    std::vector<SinglePoint> points;
    {
        dp::SdpConfig cfg;
        cfg.plane = dp::PlaneKind::HyperPlane;
        cfg.numCores = 1;
        cfg.numQueues = 400;
        cfg.workload = workloads::Kind::PacketEncapsulation;
        cfg.shape = traffic::Shape::FB;
        cfg.offeredRatePerSec = 2e6;
        cfg.warmupUs = 800.0;
        cfg.measureUs = 60000.0;
        cfg.seed = 7;
        points.push_back(timePoint("hyperplane-loaded", cfg));

        auto spin = cfg;
        spin.plane = dp::PlaneKind::Spinning;
        points.push_back(timePoint("spinning-loaded", spin));

        auto mc = cfg;
        mc.numCores = 4;
        mc.org = dp::QueueOrg::ScaleUpAll;
        mc.offeredRatePerSec = 6e6;
        points.push_back(timePoint("hyperplane-4core", mc));

        // Memory-bound point: 16 spin-polling cores all sharing 16
        // overloaded queues, so queue-head lines ping-pong and nearly
        // every access hits the directory's owner/sharer/invalidate
        // queries.  This is the point that tracks the O(cores)->O(1)
        // coherence-lookup win (see docs/PERFORMANCE.md).
        auto mb = cfg;
        mb.plane = dp::PlaneKind::Spinning;
        mb.numCores = 16;
        mb.numQueues = 16;
        mb.org = dp::QueueOrg::ScaleUpAll;
        mb.offeredRatePerSec = 4e7;
        mb.warmupUs = 300.0;
        mb.measureUs = 2500.0;
        mb.seed = 23;
        points.push_back(timePoint("membound-16core-spin", mb));
    }

    stats::Table t("Single-point kernel throughput");
    t.header({"point", "wall s", "sim events", "events/s", "Mtps",
              "dir lookups"});
    for (const auto &p : points) {
        t.row({p.name, stats::fmt(p.wallSec, 3),
               std::to_string(p.events),
               stats::fmt(p.eventsPerSec / 1e6, 2) + "M",
               stats::fmt(p.throughputMtps),
               std::to_string(p.dirLookups)});
    }
    t.print();

    // --- Core-scaling endpoints (16 vs 128 cores) --------------------
    const ScalingEndpoint sc16 = timeScalingEndpoint(16, 3);
    const ScalingEndpoint sc128 = timeScalingEndpoint(128, 3);
    const double scalingSpread =
        sc16.nsPerEvent > 0.0 ? sc128.nsPerEvent / sc16.nsPerEvent : 0.0;
    std::printf("core scaling: %.1f ns/event at 16 cores, %.1f at 128 "
                "(%.2fx; full sweep: bench/ext_core_scaling)\n",
                sc16.nsPerEvent, sc128.nsPerEvent, scalingSpread);

    // --- Hot-path kernel micro-points --------------------------------
    const std::vector<KernelPoint> kernels = timeKernels();
    {
        stats::Table kt("SIMD kernel dispatch (scalar vs dispatched)");
        kt.header({"kernel", "variant", "scalar ns", "dispatched ns",
                   "speedup", "match"});
        for (const auto &k : kernels) {
            kt.row({k.name, k.variant, stats::fmt(k.scalarNs, 1),
                    stats::fmt(k.dispatchedNs, 1),
                    stats::fmt(k.speedup, 2) + "x",
                    k.resultsMatch ? "yes" : "NO"});
        }
        kt.print();
    }

    const std::uint64_t heapFallbacks =
        EventCallback::heapFallbackCount();
    std::printf("callback inline-buffer overflows: %llu (expect 0)\n",
                static_cast<unsigned long long>(heapFallbacks));

    // --- fig10 sweep: jobs 1 vs jobs N -------------------------------
    double seqSec = 0.0, parSec = 0.0;
    const std::string seqJson = sweepJson(1, seqSec);
    const std::string parJson = sweepJson(jobs, parSec);
    const bool identical = seqJson == parJson;
    const double speedup = parSec > 0 ? seqSec / parSec : 0.0;

    std::printf("fig10 sweep: %.2f s at --jobs 1, %.2f s at --jobs %u "
                "(%.2fx); exports %s\n",
                seqSec, parSec, jobs, speedup,
                identical ? "byte-identical" : "DIFFER");

    // --- JSON export --------------------------------------------------
    std::ostringstream os;
    // Speedup only means something with real parallel hardware; on a
    // <4-thread host a sub-1.0 ratio reads like a regression when it is
    // only scheduler overhead, so the sweep check is reported skipped.
    const bool sweepCheckable = hw >= 4 && jobs >= 4;
    os << "{\n\"host\":" << harness::hostJson(jobs)
       << ",\n\"hardware_concurrency\":" << hw
       << ",\n\"jobs\":" << jobs
       << ",\n\"callback_heap_fallbacks\":" << heapFallbacks
       << ",\n\"single_points\":[";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &p = points[i];
        os << (i == 0 ? "" : ",") << "\n{\"name\":"
           << stats::jsonString(p.name)
           << ",\"wall_sec\":" << stats::jsonNumber(p.wallSec)
           << ",\"sim_events\":" << p.events
           << ",\"events_per_sec\":" << stats::jsonNumber(p.eventsPerSec)
           << ",\"throughput_mtps\":"
           << stats::jsonNumber(p.throughputMtps)
           << ",\"directory_lookups\":" << p.dirLookups
           << ",\"directory_hits\":" << p.dirHits
           << ",\"directory_lines\":" << p.dirLines << "}";
    }
    os << "],\n\"kernel_micro\":{\"force_scalar\":"
       << (net::simd::kernels().forcedScalar ? "true" : "false")
       << ",\"points\":[";
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const auto &k = kernels[i];
        os << (i == 0 ? "" : ",") << "\n{\"name\":"
           << stats::jsonString(k.name)
           << ",\"variant\":" << stats::jsonString(k.variant)
           << ",\"scalar_ns\":" << stats::jsonNumber(k.scalarNs)
           << ",\"dispatched_ns\":" << stats::jsonNumber(k.dispatchedNs)
           << ",\"speedup\":" << stats::jsonNumber(k.speedup)
           << ",\"results_match\":" << (k.resultsMatch ? "true" : "false")
           << "}";
    }
    os << "]}";
    os << ",\n\"core_scaling\":{\"ns_per_event_16\":"
       << stats::jsonNumber(sc16.nsPerEvent)
       << ",\"ns_per_event_128\":" << stats::jsonNumber(sc128.nsPerEvent)
       << ",\"spread_128_vs_16\":" << stats::jsonNumber(scalingSpread)
       << ",\"sim_events_16\":" << sc16.events
       << ",\"sim_events_128\":" << sc128.events << "}";
    os << ",\n\"fig10_sweep\":{\"jobs1_wall_sec\":"
       << stats::jsonNumber(seqSec)
       << ",\"jobsN_wall_sec\":" << stats::jsonNumber(parSec);
    if (sweepCheckable) {
        os << ",\"speedup\":" << stats::jsonNumber(speedup)
           << ",\"sweep_check\":\"" << (identical ? "ok" : "differs")
           << "\"";
    } else {
        os << ",\"sweep_check\":\"skipped(single-thread-host)\"";
    }
    os << ",\"byte_identical\":" << (identical ? "true" : "false")
       << "}\n}\n";
    harness::writeTextFile(outPath, os.str());

    if (!check)
        return 0;

    bool ok = true;
    if (!identical) {
        std::puts("CHECK FAILED: --jobs 1 and --jobs N exports differ");
        ok = false;
    }
    if (heapFallbacks != 0) {
        std::puts("CHECK FAILED: schedule fast path heap-allocated");
        ok = false;
    }
    for (const auto &k : kernels) {
        if (!k.resultsMatch) {
            std::printf("CHECK FAILED: %s dispatched result differs "
                        "from scalar\n",
                        k.name);
            ok = false;
        }
        // The dispatched kernel may tie scalar (scalar hosts, forced
        // scalar) but must never be meaningfully slower.
        if (k.speedup > 0.0 && k.speedup < 0.8) {
            std::printf("CHECK FAILED: %s dispatched %.2fx slower than "
                        "scalar (variant %s)\n",
                        k.name, 1.0 / k.speedup, k.variant);
            ok = false;
        }
    }
    // The speedup assertion needs real cores; skip on small hosts (the
    // determinism byte-compare above runs everywhere).
    if (hw >= 4 && jobs >= 4 && speedup < 2.0) {
        std::printf("CHECK FAILED: speedup %.2fx < 2x with %u hardware "
                    "threads\n",
                    speedup, hw);
        ok = false;
    }
    return ok ? 0 : 1;
}
