/**
 * @file
 * Extension benchmark: the stateful application suite on both
 * execution paths.
 *
 * Part 1 (always runs, no sockets needed): each app as a *simulator*
 * workload — Kind::{HeavyHitter,ConntrackLb,SpinRtt} behind a
 * HyperPlane plane — with a determinism probe (two identical runs must
 * agree exactly on completions and handler counters: the stateful
 * workloads must keep the simulator seeded and bit-identical).
 *
 * Part 2 (skips gracefully without sockets): each app as a *server*
 * handler — the real UDP server on loopback, flow-coherent loadgen
 * traffic pinned to that app's opcode — swept across active-flow
 * counts (1k -> 256k), the state-scaling axis HyperPlane's
 * many-active-flows claim rests on.  The heavy-hitter sweep uses the
 * Zipf popularity shape so the promotion table sees genuine skew.
 *
 * Gates (--check):
 *  - sim: nonzero completions, every synthesized request decodes
 *    (handledOk == processed), determinism probe exact;
 *  - server, every point: >= 99.9% answered, p99 below --max-p99-us,
 *    zero payload copies (app handlers build responses in the RX frame
 *    in place — same tripwire as echo);
 *  - server, per app: the app's own counters moved (sketch updates /
 *    connection opens / spin edges observed);
 *  - server, conntrack: no out-of-order segment unless a request was
 *    shed or lost (one thread serves a queue at a time, so each flow
 *    reaches the handler in arrival order; a missing request still
 *    leaves a counted gap).
 *
 * Flags:
 *   --quick          small sweep for CI smoke runs
 *   --check          exit nonzero when a gate fails
 *   --max-p99-us N   p99 ceiling per point (default 50000)
 *   --rate R         offered req/s per point (default host-scaled)
 *   --duration S     send-phase seconds per point
 *   --json FILE      machine-readable export (BENCH_app.json in CI)
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "app/app.hh"
#include "app/conntrack_lb.hh"
#include "app/heavy_hitter.hh"
#include "app/spin_rtt.hh"
#include "dp/sdp_system.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "server/loadgen.hh"
#include "server/server.hh"
#include "stats/json.hh"
#include "stats/registry.hh"
#include "stats/table.hh"
#include "workloads/stateful_app.hh"

using namespace hyperplane;

namespace {

// ---------------------------------------------------------------------
// Part 1: simulator scenarios
// ---------------------------------------------------------------------

struct SimPoint
{
    workloads::Kind kind;
    dp::SdpResults res;
    std::uint64_t processed = 0;
    std::uint64_t handledOk = 0;
    std::uint64_t counterA = 0; ///< app-specific (updates/opens/edges)
};

dp::SdpConfig
simConfigFor(workloads::Kind kind, bool quick)
{
    dp::SdpConfig cfg;
    cfg.plane = dp::PlaneKind::HyperPlane;
    cfg.numCores = 4;
    // Few queues + a high rate so each synthetic flow (the source
    // spreads 31 flow labels per queue) sees tens of packets — enough
    // for conntrack open/data cycles and spin-bit flips to register.
    cfg.numQueues = 8;
    cfg.org = dp::QueueOrg::ScaleOut;
    cfg.workload = kind;
    cfg.shape = traffic::Shape::FB;
    cfg.offeredRatePerSec = 4e6;
    cfg.warmupUs = 200.0;
    cfg.measureUs = quick ? 2000.0 : 8000.0;
    cfg.seed = 41;
    return cfg;
}

SimPoint
runSim(workloads::Kind kind, bool quick)
{
    dp::SdpSystem sys(simConfigFor(kind, quick));
    SimPoint pt;
    pt.kind = kind;
    pt.res = sys.run();
    auto &wl = dynamic_cast<workloads::StatefulApp &>(sys.workload());
    pt.processed = wl.processed();
    pt.handledOk = wl.handledOk();
    switch (kind) {
      case workloads::Kind::HeavyHitter:
        pt.counterA = dynamic_cast<app::HeavyHitterApp &>(wl.handler())
                          .updates();
        break;
      case workloads::Kind::ConntrackLb:
        pt.counterA =
            dynamic_cast<app::ConntrackLbApp &>(wl.handler()).opens();
        break;
      case workloads::Kind::SpinRtt:
        pt.counterA =
            dynamic_cast<app::SpinRttApp &>(wl.handler()).edges();
        break;
      default:
        break;
    }
    return pt;
}

// ---------------------------------------------------------------------
// Part 2: server flow-scaling sweep
// ---------------------------------------------------------------------

struct ServerPoint
{
    app::AppKind kind;
    unsigned numFlows;
    double ratePerSec;
    server::LoadGenReport report;
    server::ServerCounterSnapshot snap;
    /** server.app.<name>.* registry values sampled after the run. */
    double updates = 0, promotions = 0, hotFlows = 0;
    double opens = 0, closes = 0, active = 0, outOfOrder = 0;
    double edges = 0, rttSamples = 0, rttP50Ns = 0;
    double decodeErrors = 0;
};

std::optional<ServerPoint>
runServerPoint(app::AppKind kind, unsigned numFlows, double rate,
               double seconds)
{
    server::ServerConfig sc;
    sc.rxThreads = 2;
    sc.workers = 2;
    sc.numQueues = 16;
    server::UdpServer srv(sc);
    if (!srv.start())
        return std::nullopt;

    server::LoadGenConfig lc;
    lc.serverPort = srv.port();
    lc.ratePerSec = rate;
    lc.durationSec = seconds;
    lc.openLoop = true;
    lc.numFlows = numFlows;
    // Zipf skew for the heavy hitter (promotions need hot flows); the
    // other apps spread uniformly so the flow-count axis is honest.
    lc.shape = kind == app::AppKind::HeavyHitter ? traffic::Shape::Zipf
                                                 : traffic::Shape::FB;
    lc.opcodeWeights = {};
    lc.opcodeWeights[server::wire::firstAppOpcode +
                     static_cast<unsigned>(kind)] = 1.0;
    lc.seed = 47 + static_cast<unsigned>(kind);
    auto report = server::UdpLoadGen(lc).run();
    if (!report) {
        srv.stop();
        return std::nullopt;
    }

    // App counters via the registry, exactly as telemetry exports them.
    stats::Registry reg;
    srv.registerStats(reg);
    const std::string p =
        std::string("server.app.") + app::statName(kind);
    ServerPoint pt;
    pt.kind = kind;
    pt.numFlows = numFlows;
    pt.ratePerSec = rate;
    pt.updates = reg.value(p + ".updates");
    pt.promotions = reg.value(p + ".promotions");
    pt.hotFlows = reg.value(p + ".hot_flows");
    pt.opens = reg.value(p + ".opens");
    pt.closes = reg.value(p + ".closes");
    pt.active = reg.value(p + ".active");
    pt.outOfOrder = reg.value(p + ".out_of_order");
    pt.edges = reg.value(p + ".edges");
    pt.rttSamples = reg.value(p + ".samples");
    pt.rttP50Ns = reg.value(p + ".rtt_p50_ns");
    pt.decodeErrors = reg.value(p + ".decode_errors");
    srv.stop();
    pt.report = std::move(*report);
    pt.snap = srv.counterSnapshot();
    return pt;
}

double
appCounter(const ServerPoint &pt)
{
    switch (pt.kind) {
      case app::AppKind::HeavyHitter:
        return pt.updates;
      case app::AppKind::ConntrackLb:
        return pt.opens;
      case app::AppKind::SpinRtt:
        return pt.edges;
    }
    return 0;
}

std::string
resultJson(const std::vector<SimPoint> &sims, bool simDeterministic,
           const std::vector<ServerPoint> &pts, bool serverSkipped)
{
    std::string out =
        "{\"skipped\":false,\"host\":" + harness::hostJson() +
        ",\"sim_deterministic\":" +
        (simDeterministic ? "true" : "false") + ",\"sim\":[";
    bool first = true;
    for (const auto &s : sims) {
        if (!first)
            out += ',';
        first = false;
        out += std::string("{\"workload\":") +
               stats::jsonString(workloads::toString(s.kind)) +
               ",\"completions\":" + std::to_string(s.res.completions) +
               ",\"throughput_mtps\":" +
               stats::jsonNumber(s.res.throughputMtps) +
               ",\"p99_us\":" + stats::jsonNumber(s.res.p99LatencyUs) +
               ",\"processed\":" + std::to_string(s.processed) +
               ",\"handled_ok\":" + std::to_string(s.handledOk) +
               ",\"app_counter\":" + std::to_string(s.counterA) + '}';
    }
    out += "],\"server_skipped\":";
    out += serverSkipped ? "true" : "false";
    out += ",\"points\":[";
    first = true;
    for (const auto &p : pts) {
        if (!first)
            out += ',';
        first = false;
        out += std::string("{\"app\":") +
               stats::jsonString(app::statName(p.kind)) +
               ",\"flows\":" + std::to_string(p.numFlows) +
               ",\"offered_per_sec\":" +
               stats::jsonNumber(p.ratePerSec) +
               ",\"payload_copies\":" +
               std::to_string(p.snap.payloadCopies) +
               ",\"updates\":" + stats::jsonNumber(p.updates) +
               ",\"promotions\":" + stats::jsonNumber(p.promotions) +
               ",\"hot_flows\":" + stats::jsonNumber(p.hotFlows) +
               ",\"opens\":" + stats::jsonNumber(p.opens) +
               ",\"closes\":" + stats::jsonNumber(p.closes) +
               ",\"conn_active\":" + stats::jsonNumber(p.active) +
               ",\"out_of_order\":" + stats::jsonNumber(p.outOfOrder) +
               ",\"edges\":" + stats::jsonNumber(p.edges) +
               ",\"rtt_samples\":" + stats::jsonNumber(p.rttSamples) +
               ",\"rtt_p50_ns\":" + stats::jsonNumber(p.rttP50Ns) +
               ",\"decode_errors\":" +
               stats::jsonNumber(p.decodeErrors) +
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
        "Extension: stateful application suite (sim + server)",
        "heavy-hitter sketch, conntrack NAT/LB, and spin-bit RTT "
        "telemetry run as simulator\nworkloads and as UDP server "
        "handlers, swept across active-flow counts");

    const bool check = harness::argPresent(argc, argv, "--check");
    const bool quick = harness::argPresent(argc, argv, "--quick");
    const char *jsonPath = harness::argValue(argc, argv, "--json");
    const char *rateArg = harness::argValue(argc, argv, "--rate");
    const char *durArg = harness::argValue(argc, argv, "--duration");
    const char *p99Arg = harness::argValue(argc, argv, "--max-p99-us");

    // ---- Part 1: simulator ------------------------------------------
    std::vector<SimPoint> sims;
    for (const workloads::Kind k : workloads::appKinds())
        sims.push_back(runSim(k, quick));
    // Determinism probe: an identical re-run must agree exactly (the
    // same guarantee the fig10 goldens pin for the paper workloads).
    const SimPoint rerun = runSim(workloads::Kind::ConntrackLb, quick);
    const SimPoint &orig = sims[1];
    const bool simDeterministic =
        rerun.res.completions == orig.res.completions &&
        rerun.processed == orig.processed &&
        rerun.handledOk == orig.handledOk &&
        rerun.counterA == orig.counterA;

    stats::Table ts("simulator: stateful app workloads (HyperPlane)");
    ts.header({"workload", "completions", "Mtps", "p99 us", "handled",
               "app counter"});
    for (const auto &s : sims) {
        ts.row({workloads::toString(s.kind),
                std::to_string(s.res.completions),
                stats::fmt(s.res.throughputMtps, 3),
                stats::fmt(s.res.p99LatencyUs, 1),
                std::to_string(s.handledOk),
                std::to_string(s.counterA)});
    }
    ts.print();
    std::printf("determinism probe (conntrack re-run): %s\n",
                simDeterministic ? "exact" : "MISMATCH");

    // ---- Part 2: server flow sweep ----------------------------------
    const unsigned hw = std::thread::hardware_concurrency();
    std::vector<unsigned> flowCounts{1024, 8192, 65536, 262144};
    double rate = hw >= 4 ? 40e3 : 15e3;
    double seconds = 0.4;
    double maxP99Us = 50000.0;
    if (quick) {
        flowCounts = {1024, 4096};
        rate = 10e3;
        seconds = 0.3;
    }
    if (rateArg != nullptr)
        rate = std::atof(rateArg);
    if (durArg != nullptr)
        seconds = std::atof(durArg);
    if (p99Arg != nullptr)
        maxP99Us = std::atof(p99Arg);

    std::vector<ServerPoint> pts;
    bool serverSkipped = false;
    for (unsigned k = 0; k < app::numAppKinds && !serverSkipped; ++k) {
        for (const unsigned flows : flowCounts) {
            auto pt = runServerPoint(static_cast<app::AppKind>(k),
                                     flows, rate, seconds);
            if (!pt) {
                serverSkipped = true;
                break;
            }
            pts.push_back(std::move(*pt));
        }
    }
    if (serverSkipped) {
        pts.clear();
        std::puts("SKIP: UDP loopback sockets unavailable in this "
                  "sandbox; server app path not measured.");
    } else {
        stats::Table t("server: app handlers vs active flows");
        t.header({"app", "flows", "answered", "p50 us", "p99 us",
                  "p99.9 us", "app counter", "copies"});
        for (const auto &p : pts) {
            const auto &r = p.report;
            t.row({app::statName(p.kind), std::to_string(p.numFlows),
                   stats::fmt(r.answeredRatio * 100, 2) + "%",
                   stats::fmt(r.p50Us, 1), stats::fmt(r.p99Us, 1),
                   stats::fmt(r.p999Us, 1),
                   stats::fmt(appCounter(p), 0),
                   std::to_string(p.snap.payloadCopies)});
        }
        t.print();
        std::puts("Expected: answered stays ~100% and p99 bounded as "
                  "active flows scale 1k -> 256k;\nper-flow state stays "
                  "shard-local (zero payload copies, zero decode "
                  "errors).");
    }

    if (jsonPath != nullptr) {
        harness::writeTextFile(
            jsonPath,
            resultJson(sims, simDeterministic, pts, serverSkipped) +
                "\n");
    }

    if (!check)
        return 0;

    bool ok = true;
    for (const auto &s : sims) {
        if (s.res.completions == 0 || s.processed == 0) {
            std::printf("CHECK FAIL: sim %s processed nothing\n",
                        workloads::toString(s.kind));
            ok = false;
        }
        if (s.handledOk != s.processed) {
            std::printf("CHECK FAIL: sim %s rejected %llu synthesized "
                        "requests (must all decode)\n",
                        workloads::toString(s.kind),
                        static_cast<unsigned long long>(
                            s.processed - s.handledOk));
            ok = false;
        }
        if (s.counterA == 0) {
            std::printf("CHECK FAIL: sim %s app counter stayed zero\n",
                        workloads::toString(s.kind));
            ok = false;
        }
    }
    if (!simDeterministic) {
        std::puts("CHECK FAIL: stateful sim workload is not "
                  "deterministic across identical runs");
        ok = false;
    }
    for (const auto &p : pts) {
        const auto &r = p.report;
        if (r.answeredRatio < 0.999) {
            std::printf("CHECK FAIL: %s @ %u flows answered %.4f < "
                        "0.999\n",
                        app::statName(p.kind), p.numFlows,
                        r.answeredRatio);
            ok = false;
        }
        if (r.latencySamples == 0 || r.p99Us <= 0.0) {
            std::printf("CHECK FAIL: %s @ %u flows: empty latency "
                        "histogram\n",
                        app::statName(p.kind), p.numFlows);
            ok = false;
        } else if (r.p99Us > maxP99Us) {
            std::printf("CHECK FAIL: %s @ %u flows p99 %.1f us > "
                        "%.1f us\n",
                        app::statName(p.kind), p.numFlows, r.p99Us,
                        maxP99Us);
            ok = false;
        }
        // App handlers build responses over the request in place; any
        // payload memcpy would trip the same wire echo relies on.
        if (p.snap.payloadCopies != 0) {
            std::printf("CHECK FAIL: %s @ %u flows copied payloads "
                        "%llu times (expected 0)\n",
                        app::statName(p.kind), p.numFlows,
                        static_cast<unsigned long long>(
                            p.snap.payloadCopies));
            ok = false;
        }
        if (p.decodeErrors != 0) {
            std::printf("CHECK FAIL: %s @ %u flows: %.0f decode "
                        "errors from coherent loadgen traffic\n",
                        app::statName(p.kind), p.numFlows,
                        p.decodeErrors);
            ok = false;
        }
        // The app's own state machinery must have moved — but only
        // demand stateful signals (spin edges need several packets
        // per flow) where the traffic could plausibly produce them.
        const bool denseEnough =
            r.answered >= 2ull * p.numFlows;
        if (appCounter(p) <= 0.0 &&
            (p.kind != app::AppKind::SpinRtt || denseEnough)) {
            std::printf("CHECK FAIL: %s @ %u flows: app counter "
                        "stayed zero\n",
                        app::statName(p.kind), p.numFlows);
            ok = false;
        }
        const bool nothingMissing =
            r.shed == 0 && r.lost == 0 && r.sendFailures == 0;
        if (p.kind == app::AppKind::ConntrackLb && p.outOfOrder > 0.0 &&
            nothingMissing) {
            std::printf("CHECK FAIL: conntrack @ %u flows: %.0f "
                        "out-of-order segments with nothing shed or "
                        "lost\n",
                        p.numFlows, p.outOfOrder);
            ok = false;
        }
    }
    if (!ok)
        return 1;
    std::puts("CHECK OK");
    return 0;
}
