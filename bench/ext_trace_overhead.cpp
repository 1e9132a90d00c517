/**
 * @file
 * Extension benchmark: cost of the observability subsystem.
 *
 * Three runs of the same saturated configuration — tracing disabled,
 * tracing enabled, tracing + registry sampling — compare simulated
 * throughput and host wall time.  Tracing has one runtime gate: with
 * it off, every stamp site is a single null-pointer test; the enabled
 * runs show the bounded cost of the flight recorder and the sampler.
 *
 * A final zero-load traced run validates the latency breakdown: the
 * four stage means must sum to the end-to-end mean exactly (the stage
 * boundaries telescope per episode).
 *
 * This bench intentionally does NOT take --jobs: it measures host wall
 * time per variant, and concurrent runs would perturb each other's
 * timings.  It is the one deliberate exception to the parallel-runner
 * convention (see docs/PERFORMANCE.md).
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "dp/sdp_system.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "harness/runner.hh"
#include "stats/json.hh"
#include "stats/table.hh"

using namespace hyperplane;

namespace {

dp::SdpConfig
loadedCfg()
{
    dp::SdpConfig cfg;
    cfg.plane = dp::PlaneKind::HyperPlane;
    cfg.numCores = 1;
    cfg.numQueues = 100;
    cfg.workload = workloads::Kind::PacketEncapsulation;
    cfg.shape = traffic::Shape::FB;
    cfg.offeredRatePerSec = 2e6; // near saturation; identical per run
    cfg.warmupUs = 800.0;
    cfg.measureUs = 6000.0;
    cfg.seed = 171;
    return cfg;
}

struct Variant
{
    const char *name;
    dp::SdpResults results;
    double hostMs;
};

Variant
runVariant(const char *name, const dp::SdpConfig &cfg)
{
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = dp::runSdp(cfg);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return {name, r, ms};
}

} // namespace

int
main(int argc, char **argv)
{
    harness::printTableI();
    harness::printExperimentBanner(
        "Extension: trace overhead",
        "observability cost at saturation + breakdown validation");

    auto base = loadedCfg();
    auto traced = base;
    traced.trace.enable = true;
    auto sampled = traced;
    sampled.trace.sampleEveryUs = 50.0;

    const Variant variants[] = {
        runVariant("disabled", base),
        runVariant("traced", traced),
        runVariant("traced+sampled", sampled),
    };

    stats::Table t("Observability overhead (same seed, same traffic)");
    t.header({"variant", "Mtps", "avg us", "host ms", "trace events",
              "ring drops"});
    for (const auto &v : variants) {
        t.row({v.name, stats::fmt(v.results.throughputMtps),
               stats::fmt(v.results.avgLatencyUs, 2),
               stats::fmt(v.hostMs, 1),
               std::to_string(v.results.traceEvents),
               std::to_string(v.results.traceDropped)});
    }
    t.print();

    const double mtpsDelta =
        std::abs(variants[1].results.throughputMtps -
                 variants[0].results.throughputMtps) /
        variants[0].results.throughputMtps;
    std::printf("simulated-throughput delta, disabled vs traced: "
                "%.3f%% (tracing observes, never perturbs)\n",
                100.0 * mtpsDelta);

    // --- Breakdown validation at zero load ---------------------------
    auto zcfg = loadedCfg();
    zcfg.jitter = dp::ServiceJitter::None;
    zcfg.shape = traffic::Shape::SQ;
    zcfg = harness::zeroLoadConfig(zcfg, 500);
    zcfg.trace.enable = true;
    dp::SdpSystem sys(zcfg);
    const auto zr = sys.run();

    const double sum = zr.avgDoorbellToSnoopUs + zr.avgSnoopToReadyUs +
                       zr.avgReadyToGrantUs +
                       zr.avgGrantToCompletionUs;
    const double tickUs = ticksToUs(1);
    const bool sumOk =
        std::abs(sum - zr.breakdownE2eAvgUs) <= tickUs + 1e-9;
    const bool latOk =
        std::abs(zr.breakdownE2eAvgUs - zr.avgLatencyUs) <= 0.05;
    std::printf("zero-load breakdown: %.3f + %.3f + %.3f + %.3f = "
                "%.3f us vs e2e %.3f us (%s), measured avg %.3f us "
                "(%s), %llu episodes\n",
                zr.avgDoorbellToSnoopUs, zr.avgSnoopToReadyUs,
                zr.avgReadyToGrantUs, zr.avgGrantToCompletionUs, sum,
                zr.breakdownE2eAvgUs, sumOk ? "OK" : "MISMATCH",
                zr.avgLatencyUs, latOk ? "OK" : "MISMATCH",
                static_cast<unsigned long long>(zr.breakdownSamples));

    if (const char *path = harness::argValue(argc, argv, "--trace")) {
        std::ostringstream os;
        sys.writeChromeTrace(os);
        harness::writeTextFile(path, os.str());
    }
    if (const char *path = harness::argValue(argc, argv, "--json")) {
        std::ostringstream os;
        os << "{\"variants\":{";
        for (std::size_t i = 0; i < 3; ++i) {
            if (i != 0)
                os << ',';
            os << "\n" << stats::jsonString(variants[i].name)
               << ":" << harness::resultsJson(variants[i].results);
        }
        os << "},\n\"zero_load\":" << harness::resultsJson(zr)
           << "}\n";
        harness::writeTextFile(path, os.str());
    }

    std::puts("Expected: all three variants within noise of each "
              "other in Mtps (the simulation is\ndeterministic per "
              "seed; tracing adds host time only), and the stage "
              "means summing\nexactly to the breakdown e2e mean.");
    return sumOk && latOk ? 0 : 1;
}
