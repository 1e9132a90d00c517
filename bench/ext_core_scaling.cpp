/**
 * @file
 * Extension benchmark: simulator wall-clock scaling with core count.
 *
 * Runs the same HyperPlane scale-out data plane at 16 -> 1024 cores
 * (queue count and offered rate scale with the cores, so per-core work
 * is constant) and reports host wall time per simulated event.  With
 * the coherence directory and the interval-indexed snooper dispatch,
 * per-event cost stays flat; with the legacy O(cores) tag-array sweeps
 * it grew roughly linearly (~8x implied from 16 -> 128 cores).
 *
 * Points above 128 cores shrink the measured window in proportion so
 * every point simulates a comparable event count; they exist to prove
 * the 512/1024-core machines build and run (directory sharer ids),
 * and are excluded from the flatness gate because the
 * simulated state is far past host cache reach there and the residual
 * capacity slope is a host property, not a simulator regression.
 *
 * Like ext_trace_overhead, this bench deliberately takes no --jobs:
 * each point is timed against the host clock, and concurrent runs
 * would perturb each other's timings.
 *
 * Flags:
 *   --cores N        run a single core count instead of the sweep
 *   --reps N         timed repetitions per point; the best (minimum)
 *                    wall time is reported (default 3).  The minimum
 *                    is the standard noise-robust estimator: shared
 *                    hosts only ever add time, never remove it.
 *   --json FILE      machine-readable export
 *   --check          exit nonzero if the flatness/budget gates fail
 *   --budget-sec S   wall-clock budget for the whole run (with --check)
 *   --flat-factor F  max allowed (worst ns/event) / (16-core ns/event)
 *                    across the <=128-core sweep (default 2.5, with
 *                    --check)
 *
 * On the gate default: the directory removes the O(cores) per-event
 * term entirely (per-event directory/tag-probe counts are flat across
 * the sweep), but the host still pays capacity effects — the simulated
 * machine state grows ~8x from 16 to 128 cores, and once it exceeds
 * the host's private cache and TLB reach each probe gets slower.  On
 * the reference single-core container (2 MB host L2, THP unavailable)
 * that residual measures ~1.7-2.0x.  The gate is set above that band
 * to catch the failure mode it exists for: a reintroduced O(cores)
 * sweep measures ~8x and trips it instantly, while host-cache variance
 * does not.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "dp/sdp_system.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "stats/json.hh"
#include "stats/table.hh"

using namespace hyperplane;

namespace {

struct ScalePoint
{
    unsigned cores;
    double wallSec;
    std::uint64_t events;
    double nsPerEvent;
    double throughputMtps;
    std::uint64_t dirLookups;
    std::uint64_t dirLines;
    std::uint64_t snoopMatches;
};

dp::SdpConfig
configFor(unsigned cores)
{
    dp::SdpConfig cfg;
    cfg.plane = dp::PlaneKind::HyperPlane;
    cfg.org = dp::QueueOrg::ScaleOut; // one qwait unit per core
    cfg.numCores = cores;
    cfg.numQueues = 8 * cores;
    cfg.workload = workloads::Kind::PacketEncapsulation;
    cfg.shape = traffic::Shape::FB;
    cfg.offeredRatePerSec = 4e5 * cores; // constant per-core load
    cfg.warmupUs = 200.0;
    // Long enough that the 16-core point runs a few hundred ms of host
    // wall time; sub-100ms points made the spread gate noise-bound on
    // small hosts.  Past 128 cores the window shrinks in proportion so
    // the big machines cost about as much host time as the 128-core
    // point instead of 8x more.
    cfg.measureUs = cores > 128 ? 6000.0 * 128.0 / cores : 6000.0;
    cfg.seed = 97;
    return cfg;
}

ScalePoint
runPoint(unsigned cores, unsigned reps)
{
    const dp::SdpConfig cfg = configFor(cores);
    ScalePoint best{};
    for (unsigned rep = 0; rep < reps; ++rep) {
        // The simulation is deterministic, so every rep produces the
        // same events/stats and only the host wall time varies.
        dp::SdpSystem sys(cfg);
        const auto t0 = std::chrono::steady_clock::now();
        const auto r = sys.run();
        const double sec = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
        if (rep != 0 && sec >= best.wallSec)
            continue;
        const std::uint64_t events = sys.eventQueue().dispatched();
        best = {cores,
                sec,
                events,
                events > 0 ? 1e9 * sec / static_cast<double>(events)
                           : 0.0,
                r.throughputMtps,
                sys.memory().dirLookups.value(),
                sys.memory().directoryLines(),
                sys.memory().snoopHits.value()};
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::printTableI();
    harness::printExperimentBanner(
        "Extension: core-count scaling",
        "per-event simulation cost, 16 -> 1024 cores (directory-indexed "
        "coherence + interval-indexed snoop dispatch)");

    const bool check = harness::argPresent(argc, argv, "--check");
    const char *jsonPath = harness::argValue(argc, argv, "--json");
    const char *coresArg = harness::argValue(argc, argv, "--cores");
    const char *repsArg = harness::argValue(argc, argv, "--reps");
    const char *budgetArg = harness::argValue(argc, argv, "--budget-sec");
    const char *flatArg = harness::argValue(argc, argv, "--flat-factor");
    const double budgetSec =
        budgetArg != nullptr ? std::atof(budgetArg) : 0.0;
    const double flatFactor =
        flatArg != nullptr ? std::atof(flatArg) : 2.5;
    const unsigned reps = std::max(
        1, repsArg != nullptr ? std::atoi(repsArg) : 3);

    std::vector<unsigned> coreCounts{16, 32, 64, 128, 512, 1024};
    if (coresArg != nullptr)
        coreCounts = {static_cast<unsigned>(std::atoi(coresArg))};

    const auto suiteT0 = std::chrono::steady_clock::now();
    std::vector<ScalePoint> pts;
    for (const unsigned c : coreCounts)
        pts.push_back(runPoint(c, reps));
    const double suiteSec = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - suiteT0)
                                .count();

    std::printf("timing: best of %u rep%s per point\n", reps,
                reps == 1 ? "" : "s");
    stats::Table t("Per-event wall cost vs core count");
    t.header({"cores", "wall s", "sim events", "ns/event", "vs first",
              "Mtps", "dir lookups", "dir lines"});
    for (const auto &p : pts) {
        t.row({std::to_string(p.cores), stats::fmt(p.wallSec, 3),
               std::to_string(p.events), stats::fmt(p.nsPerEvent, 1),
               stats::fmt(p.nsPerEvent / pts.front().nsPerEvent, 2) + "x",
               stats::fmt(p.throughputMtps),
               std::to_string(p.dirLookups),
               std::to_string(p.dirLines)});
    }
    t.print();

    // The flatness gate covers the <=128-core band; the 512/1024-core
    // points are capacity/capability points (see file comment).
    double worstRatio = 1.0;
    std::size_t gated = 0;
    for (const auto &p : pts) {
        if (p.cores > 128)
            continue;
        ++gated;
        worstRatio = std::max(worstRatio,
                              p.nsPerEvent / pts.front().nsPerEvent);
    }
    if (gated > 1) {
        std::printf("per-event cost spread across %zu core counts "
                    "(<=128): %.2fx (flat-cost gate: %.2fx)\n",
                    gated, worstRatio, flatFactor);
    }
    std::printf("total wall: %.2f s%s\n", suiteSec,
                budgetSec > 0.0 ? " (budgeted)" : "");

    if (jsonPath != nullptr) {
        std::ostringstream os;
        os << "{\n\"host\":" << harness::hostJson()
           << ",\n\"points\":[";
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const auto &p = pts[i];
            os << (i == 0 ? "" : ",") << "\n{\"cores\":" << p.cores
               << ",\"wall_sec\":" << stats::jsonNumber(p.wallSec)
               << ",\"sim_events\":" << p.events
               << ",\"ns_per_event\":" << stats::jsonNumber(p.nsPerEvent)
               << ",\"throughput_mtps\":"
               << stats::jsonNumber(p.throughputMtps)
               << ",\"directory_lookups\":" << p.dirLookups
               << ",\"directory_lines\":" << p.dirLines
               << ",\"snoop_matches\":" << p.snoopMatches << "}";
        }
        os << "],\n\"reps\":" << reps
           << ",\n\"per_event_spread\":"
           << stats::jsonNumber(worstRatio)
           << ",\n\"total_wall_sec\":" << stats::jsonNumber(suiteSec);
        os << "\n}\n";
        harness::writeTextFile(jsonPath, os.str());
    }

    if (!check)
        return 0;

    bool ok = true;
    if (gated > 1 && worstRatio > flatFactor) {
        std::printf("CHECK FAILED: per-event cost spread %.2fx exceeds "
                    "%.2fx\n",
                    worstRatio, flatFactor);
        ok = false;
    }
    if (budgetSec > 0.0 && suiteSec > budgetSec) {
        std::printf("CHECK FAILED: wall %.2f s exceeds budget %.2f s\n",
                    suiteSec, budgetSec);
        ok = false;
    }
    for (const auto &p : pts) {
        if (p.events == 0 || p.throughputMtps <= 0.0) {
            std::printf("CHECK FAILED: %u-core point ran no work\n",
                        p.cores);
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
