/**
 * @file
 * Extension benchmark: the real UDP server under open- vs closed-loop
 * load.
 *
 * The simulator predicts how the notification fabric behaves; this
 * experiment measures the emulation: the actual UDP server
 * (src/server) on loopback, driven by the open-loop Poisson load
 * generator.  The sweep raises offered load across worker counts and
 * reports achieved throughput, completion ratio, and end-to-end tail
 * latency, then contrasts one closed-loop (windowed) point at the same
 * worker count — the closed-loop fallacy in numbers: the window hides
 * queueing delay that open-loop load exposes as p99.
 *
 * Flags:
 *   --quick          tiny sweep for CI smoke runs
 *   --check          exit nonzero if the completion/throughput gates
 *                    fail
 *   --min-achieved R override the achieved-throughput gate (req/s)
 *   --rate R         single offered rate instead of the sweep
 *   --workers N      single worker count instead of the sweep
 *   --duration S     send-phase seconds per point
 *   --json FILE      machine-readable export (BENCH_server.json in CI)
 *
 * When the sandbox forbids UDP sockets the run prints a skip
 * annotation and exits 0 (with a {"skipped":true} JSON if requested):
 * absence of a network is not a regression.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/export.hh"
#include "net/simd/dispatch.hh"
#include "server/loadgen.hh"
#include "server/server.hh"
#include "stats/json.hh"
#include "stats/table.hh"

using namespace hyperplane;

namespace {

struct Point
{
    const char *mode;
    unsigned workers;
    double ratePerSec;
    server::LoadGenReport report;
    server::ServerCounterSnapshot snap;
};

/** One server + one loadgen run; nullopt when sockets are denied. */
std::optional<Point>
runPoint(const char *mode, bool openLoop, unsigned workers, double rate,
         double seconds, bool echoOnly = false)
{
    server::ServerConfig sc;
    sc.rxThreads = 2;
    sc.workers = workers;
    sc.numQueues = 16;
    server::UdpServer srv(sc);
    if (!srv.start())
        return std::nullopt;

    server::LoadGenConfig lc;
    lc.serverPort = srv.port();
    lc.ratePerSec = rate;
    lc.durationSec = seconds;
    lc.openLoop = openLoop;
    lc.window = 64;
    lc.numFlows = 64;
    lc.opcodeWeights =
        echoOnly
            ? std::array<double, server::wire::numOpcodes>{1.0, 0.0, 0.0}
            : std::array<double, server::wire::numOpcodes>{0.5, 0.25,
                                                           0.25};
    lc.seed = 31;
    auto report = server::UdpLoadGen(lc).run();
    srv.stop();
    if (!report)
        return std::nullopt;
    return Point{mode, workers, rate, std::move(*report),
                 srv.counterSnapshot()};
}

std::string
pointsJson(const std::vector<Point> &pts)
{
    std::string out =
        "{\"skipped\":false,\"host\":" + harness::hostJson() +
        ",\"points\":[";
    bool first = true;
    for (const auto &p : pts) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"mode\":" + stats::jsonString(p.mode) +
               ",\"workers\":" + std::to_string(p.workers) +
               ",\"offered_per_sec\":" + stats::jsonNumber(p.ratePerSec) +
               ",\"payload_copies\":" + std::to_string(p.snap.payloadCopies) +
               ",\"pool_drops\":" + std::to_string(p.snap.poolDrops) +
               ",\"report\":" + p.report.json() + '}';
    }
    out += "]}";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::printTableI();
    harness::printExperimentBanner(
        "Extension: UDP server saturation (emulation)",
        "real loopback server + open-loop Poisson loadgen: offered load "
        "vs achieved throughput and\ne2e tail latency, with a "
        "closed-loop contrast point (mixed echo/encap/steer traffic)");

    const bool check = harness::argPresent(argc, argv, "--check");
    const bool quick = harness::argPresent(argc, argv, "--quick");
    const char *jsonPath = harness::argValue(argc, argv, "--json");
    const char *rateArg = harness::argValue(argc, argv, "--rate");
    const char *workersArg = harness::argValue(argc, argv, "--workers");
    const char *durArg = harness::argValue(argc, argv, "--duration");
    const char *minArg = harness::argValue(argc, argv, "--min-achieved");

    // On a multi-core host the SIMD + zero-copy path must clear 350k
    // answered/s; a single-CPU box timeshares server and loadgen on one
    // core, so the documented fallback bar is the pre-SIMD 100k.
    const unsigned hw = std::thread::hardware_concurrency();
    std::vector<unsigned> workerCounts{1, 2, 4};
    std::vector<double> rates{25e3, 50e3, 100e3, 150e3, 200e3};
    double seconds = 0.5;
    double minAchieved = 100e3;
    if (hw >= 4) {
        rates.push_back(300e3);
        rates.push_back(450e3);
        minAchieved = 350e3;
    }
    if (quick) {
        workerCounts = {2};
        rates = {5e3, 20e3};
        seconds = 0.3;
        minAchieved = 4e3;
    }
    if (workersArg != nullptr)
        workerCounts = {static_cast<unsigned>(std::atoi(workersArg))};
    if (rateArg != nullptr)
        rates = {std::atof(rateArg)};
    if (durArg != nullptr)
        seconds = std::atof(durArg);
    if (minArg != nullptr)
        minAchieved = std::atof(minArg);

    std::vector<Point> pts;
    bool skipped = false;
    for (const unsigned w : workerCounts) {
        for (const double r : rates) {
            auto pt = runPoint("open", true, w, r, seconds, false);
            if (!pt) {
                skipped = true;
                break;
            }
            pts.push_back(std::move(*pt));
        }
        if (skipped)
            break;
    }
    const Point *echoPt = nullptr;
    if (!skipped && !pts.empty()) {
        // Closed-loop contrast at the largest worker count.
        auto pt = runPoint("closed", false, workerCounts.back(),
                           rates.back(), seconds);
        if (pt)
            pts.push_back(std::move(*pt));
        // Echo-only zero-copy probe: payloads must ride the RX frame all
        // the way out, so the server-side copy tripwire stays at zero.
        auto echo = runPoint("echo0", true, workerCounts.back(),
                             rates.front(), seconds, true);
        if (echo) {
            pts.push_back(std::move(*echo));
            echoPt = &pts.back();
        }
    }

    if (skipped || pts.empty()) {
        std::puts("SKIP: UDP loopback sockets unavailable in this "
                  "sandbox; server saturation not measured.");
        if (jsonPath != nullptr)
            harness::writeTextFile(jsonPath, "{\"skipped\":true}\n");
        return 0;
    }

    stats::Table t("UDP server: offered load vs achieved + tail");
    t.header({"mode", "workers", "offered/s", "achieved/s", "answered",
              "p50 us", "p99 us", "p99.9 us"});
    for (const auto &p : pts) {
        const auto &r = p.report;
        t.row({p.mode, std::to_string(p.workers),
               stats::fmt(p.ratePerSec, 0), stats::fmt(r.achievedPerSec, 0),
               stats::fmt(r.completionRatio * 100, 2) + "%",
               stats::fmt(r.p50Us, 1), stats::fmt(r.p99Us, 1),
               stats::fmt(r.p999Us, 1)});
    }
    t.print();

    double bestAchieved = 0.0;
    double bestP99 = 0.0;
    for (const auto &p : pts) {
        if (p.report.achievedPerSec > bestAchieved) {
            bestAchieved = p.report.achievedPerSec;
            bestP99 = p.report.p99Us;
        }
    }
    std::printf("peak achieved: %.0f req/s (p99 %.1f us)\n",
                bestAchieved, bestP99);
    const auto &kern = net::simd::kernels();
    std::printf("host: %u hardware threads; kernels: checksum=%s "
                "crc32c=%s header=%s%s\n",
                hw, kern.checksumName, kern.crc32cName,
                kern.headerCheckName,
                kern.forcedScalar ? " (forced scalar)" : "");
    if (echoPt != nullptr)
        std::printf("echo-only point: %llu payload copies, %llu pool "
                    "drops (zero-copy RX->TX %s)\n",
                    static_cast<unsigned long long>(
                        echoPt->snap.payloadCopies),
                    static_cast<unsigned long long>(
                        echoPt->snap.poolDrops),
                    echoPt->snap.payloadCopies == 0 ? "holds"
                                                    : "VIOLATED");
    std::puts("Expected: open-loop p99 grows with offered load as "
              "queueing sets in while closed-loop p99\nstays flat (the "
              "window throttles the arrival process instead of "
              "exposing the delay).");

    if (jsonPath != nullptr)
        harness::writeTextFile(jsonPath, pointsJson(pts) + "\n");

    if (check) {
        bool ok = true;
        // Gate 1: light load must be answered essentially completely.
        const auto &light = pts.front().report;
        if (light.completionRatio < 0.999) {
            std::printf("CHECK FAIL: completion %.4f < 0.999 at "
                        "%.0f req/s\n",
                        light.completionRatio, pts.front().ratePerSec);
            ok = false;
        }
        // Gate 2: the sweep must reach the throughput bar.
        if (bestAchieved < minAchieved) {
            std::printf("CHECK FAIL: peak achieved %.0f < %.0f req/s\n",
                        bestAchieved, minAchieved);
            ok = false;
        }
        // Gate 3: percentiles must come from real samples.
        if (light.latencySamples == 0 || light.p99Us <= 0.0) {
            std::puts("CHECK FAIL: empty latency histogram");
            ok = false;
        }
        // Gate 4: the echo-only point must be copy-free end to end —
        // the FramePool tripwire counts every payload memcpy.
        if (echoPt == nullptr) {
            std::puts("CHECK FAIL: echo-only zero-copy point missing");
            ok = false;
        } else if (echoPt->snap.payloadCopies != 0) {
            std::printf("CHECK FAIL: echo path copied payloads %llu "
                        "times (expected 0)\n",
                        static_cast<unsigned long long>(
                            echoPt->snap.payloadCopies));
            ok = false;
        }
        if (!ok)
            return 1;
        std::puts("CHECK OK");
    }
    return 0;
}
