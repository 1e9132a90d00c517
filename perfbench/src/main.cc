/**
 * @file
 * perfbench: the repository's end-to-end benchmark driver.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Runs the workload's simulator phase, then its server phases (a light
 * and a busy open-loop rate), checks every output, and prints a detail
 * report followed, on the last line, by the result object
 * {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
 * end-to-end metrics; --trace 1 repeats the timed phases with tracing
 * on, runs the isolated per-layer drives afterwards, and reports the
 * per-layer metrics.
 *
 * "perfbench --generator ..." is the forked generator's entry point.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/export.hh"
#include "layers.hh"
#include "measure.hh"
#include "phases.hh"
#include "stats/json.hh"

using namespace perfbench;
namespace hp = hyperplane;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace") a.trace = v == "1";
        else return false;
    }
    return (argc % 2) == 1 && !a.workload.empty() && a.seconds > 0.0;
}

/** Share of the run given to each part. */
constexpr double simShare = 0.3;
constexpr double phaseShare = 0.35;
constexpr unsigned setupCycles = 5;

/** The timed measurement of one workload: what --trace 0 reports. */
struct Timed
{
    int serverCpu = -1; ///< CPU the server phases were pinned to
    SimPhase sim;
    ServerPhase light, busy;
    std::vector<double> serverStart, genReady;
};

GenConfig
genConfig(const Workload &w, double rate, double seconds,
          std::uint64_t seed)
{
    GenConfig g;
    g.seconds = seconds;
    // 0.5 s windows hold 1,000 samples at 2k req/s: enough for a p99
    // with ten samples beyond it.
    g.warmupSec = std::min(0.5, 0.15 * seconds);
    g.windowSec = std::min(0.5, (seconds - g.warmupSec) / 3.0);
    g.seed = seed;
    g.tenants = w.loads(rate);
    return g;
}

ServerPhase
serverPhase(const Workload &w, double rate, double seconds,
            std::uint64_t seed, bool traced)
{
    hp::server::ServerConfig sc = w.serverConfig(rate);
    if (traced)
        sc.telemetry.stageSampleEvery = 1;
    return runServerPhase(sc, genConfig(w, rate, seconds, seed));
}

Timed
runTimed(const Workload &w, const Args &a, bool traced)
{
    Timed t;
    hp::dp::SdpConfig sim = w.sim;
    sim.seed = a.seed;
    t.sim = runSimPhase(sim, simShare * a.seconds);
    const double phaseSec = phaseShare * a.seconds;
    const CpuPin pin;
    t.serverCpu = pin.cpu();
    for (unsigned i = 0; i < setupCycles; ++i) {
        const ServerPhase s =
            setupCycle(w.serverConfig(w.lightRate),
                       genConfig(w, w.lightRate, phaseSec, a.seed));
        t.serverStart.push_back(s.startSec);
        t.genReady.push_back(s.genReadySec);
    }
    t.light = serverPhase(w, w.lightRate, phaseSec, a.seed, traced);
    t.busy = serverPhase(w, w.busyRate, phaseSec, a.seed + 1, traced);
    for (const ServerPhase *p : {&t.light, &t.busy}) {
        t.serverStart.push_back(p->startSec);
        t.genReady.push_back(p->genReadySec);
    }
    return t;
}

/** What the client sees: latency medians over windows, server CPU. */
Metrics
client(const Timed &t)
{
    Metrics m;
    m.add("p50_us.light", median(t.light.gen.windowP50Us), "us");
    m.add("p99_us.light", median(t.light.gen.windowP99Us), "us");
    m.add("p50_us.busy", median(t.busy.gen.windowP50Us), "us");
    m.add("p99_us.busy", median(t.busy.gen.windowP99Us), "us");
    m.add("cpu_us_per_req.light", t.light.cpuUsPerReq, "us");
    m.add("cpu_us_per_req.busy", t.busy.cpuUsPerReq, "us");
    return m;
}

/** Every end-to-end metric of one timed measurement. */
Metrics
endToEnd(const Timed &t)
{
    Metrics m;
    m.add("setup_s",
          median(t.sim.constructSec) + median(t.serverStart) +
              median(t.genReady),
          "s");
    m.add("peak_rss_mb", selfUsage().maxRssKb / 1024.0, "MB");
    m.add("cpu_us_per_req.light", t.light.cpuUsPerReq, "us");
    m.add("cpu_us_per_req.busy", t.busy.cpuUsPerReq, "us");
    m.add("sim_mtps", t.sim.results.throughputMtps, "Mtasks/s");
    m.add("sim_p99_us", t.sim.results.p99LatencyUs, "us");
    m.add("sim_events_per_cpu_s", median(t.sim.eventsPerCpuSec), "1/s");
    return m;
}

/** Output checks; appends a reason per failure to @p why. */
bool
checkTimed(const Workload &w, const Timed &t, std::vector<std::string> &why)
{
    const auto fail = [&why](const std::string &s) {
        why.push_back(s);
        return false;
    };
    bool ok = true;
    if (!t.sim.identical)
        ok = fail("simulator repetitions gave different SdpResults");
    if (t.sim.results.completions == 0)
        ok = fail("simulator completed no task");
    for (const auto &[name, p] :
         {std::pair<const char *, const ServerPhase *>{"light", &t.light},
          {"busy", &t.busy}}) {
        const std::string ph = name;
        if (!p->ok)
            ok = fail(ph + ": server or generator failed");
        if (p->gen.unmatched || p->gen.duplicates || p->gen.parseErrors)
            ok = fail(ph + ": responses not matching exactly one request");
        if (p->gen.payloadMismatch)
            ok = fail(ph + ": echo payload differs from the request");
        if (!p->loss.identityHolds())
            ok = fail(ph + ": loss identity broken");
        if (w.zeroCopy && p->counters.payloadCopies != 0)
            ok = fail(ph + ": payload copied on the zero-copy echo path");
        if (p->gen.windowP99Us.empty())
            ok = fail(ph + ": no latency window");
    }
    return ok;
}

/** Requests that did not get their correct answer. */
std::uint64_t
failedOps(const Workload &w, const ServerPhase &p)
{
    return p.loss.lost + p.gen.badStatus + (w.shedExpected ? 0 : p.gen.shed);
}

std::string
phaseJson(const ServerPhase &p)
{
    using hp::stats::jsonString;
    std::string s = "{";
    const auto f = [&s](const char *k, double v) {
        if (s.size() > 1)
            s += ", ";
        s += jsonString(k) + ": " + num(v);
    };
    f("attempted", static_cast<double>(p.loss.attempted));
    f("answered", static_cast<double>(p.loss.answered));
    f("shed", static_cast<double>(p.loss.shed));
    f("lost", static_cast<double>(p.loss.lost));
    f("loss_send_fail", static_cast<double>(p.loss.sendFail));
    f("loss_server_drops", static_cast<double>(p.loss.serverDrops));
    f("loss_kernel_rcvbuf", static_cast<double>(p.loss.kernelRcvbuf));
    f("loss_unattributed", static_cast<double>(p.loss.unattributed));
    f("bad_status", static_cast<double>(p.gen.badStatus));
    f("flow_reorders", static_cast<double>(p.gen.flowReorders));
    f("client_p50_us", p.gen.p50Us);
    f("client_p99_us", p.gen.p99Us);
    f("gen_late_p50_us", p.gen.lateP50Us);
    f("gen_late_p99_us", p.gen.lateP99Us);
    f("gen_cpu_s", p.gen.cpuSec);
    f("server_cpu_s", p.usage.cpuSec);
    f("cpu_us_per_req", p.cpuUsPerReq);
    f("host_steal_pct", p.host.stealPct);
    f("host_idle_pct", p.host.idlePct);
    f("payload_copies", static_cast<double>(p.counters.payloadCopies));
    const auto list = [&s](const char *k, const std::vector<double> &v) {
        s += ", " + jsonString(k) + ": [";
        for (std::size_t i = 0; i < v.size(); ++i)
            s += (i ? ", " : "") + num(v[i]);
        s += "]";
    };
    list("window_p50_us", p.gen.windowP50Us);
    list("window_p99_us", p.gen.windowP99Us);
    return s + "}";
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer metrics of a traced run (see BENCHMARK.json). */
Metrics
perLayer(const Workload &w, const Args &a, const Timed &plain,
         const Timed &traced, const hp::dp::SdpResults &simTraced,
         const hp::dp::SdpResults &simDoubled, double simTracedCpuSec)
{
    Metrics m;
    const SimCounters &c = plain.sim.counters;
    const hp::dp::SdpResults &r = plain.sim.results;
    const double events = static_cast<double>(c.events);
    const double tasks = static_cast<double>(c.tasks);
    const double accesses = static_cast<double>(c.accesses());

    // --- simulator: counts are exact, read after run() ----------------
    m.add("sim.events", events, "count");
    m.add("sim.tasks", tasks, "count");
    m.add("sim.events_per_task", ratio(events, tasks), "events/task");
    m.add("mem.accesses", accesses, "count");
    m.add("mem.accesses_per_event", ratio(accesses, events), "1/event");
    m.add("mem.dir_lookups_per_event",
          ratio(static_cast<double>(c.dirLookups), events), "1/event");
    m.add("mem.remote_forwards_per_task",
          ratio(static_cast<double>(c.remoteForwards), tasks), "1/task");
    m.add("mem.l1_hit_ratio", ratio(static_cast<double>(c.l1Hits), accesses),
          "ratio");
    m.add("core.qwait_calls", static_cast<double>(c.qwaitCalls), "count");
    m.add("core.qwait_calls_per_task",
          ratio(static_cast<double>(c.qwaitCalls), tasks), "1/task");
    m.add("core.qwait_blocked_ratio",
          ratio(static_cast<double>(c.qwaitBlocked),
                static_cast<double>(c.qwaitCalls)),
          "ratio");
    m.add("core.spurious_wakeups_per_task",
          ratio(static_cast<double>(c.spuriousWakeups), tasks), "1/task");
    m.add("core.snoop_lookups", static_cast<double>(c.snoopLookups), "count");
    m.add("core.snoop_match_ratio",
          ratio(static_cast<double>(c.snoopMatches),
                static_cast<double>(c.snoopLookups)),
          "ratio");
    m.add("core.insert_conflicts", static_cast<double>(c.insertConflicts),
          "count");
    m.add("dp.completions", static_cast<double>(r.completions), "count");
    m.add("dp.polls_per_task", r.avgPollsPerTask, "1/task");
    m.add("dp.active_fraction", r.activeFraction, "ratio");
    m.add("dp.breakdown_samples",
          static_cast<double>(simTraced.breakdownSamples), "count");
    m.add("dp.doorbell_to_snoop_us", simTraced.avgDoorbellToSnoopUs, "us");
    m.add("dp.snoop_to_ready_us", simTraced.avgSnoopToReadyUs, "us");
    m.add("dp.ready_to_grant_us", simTraced.avgReadyToGrantUs, "us");
    m.add("dp.grant_to_completion_us", simTraced.avgGrantToCompletionUs,
          "us");
    m.add("sim.p99_window_ratio",
          ratio(simDoubled.p99LatencyUs, r.p99LatencyUs), "ratio");
    m.add("sim.traced_cpu_s", simTracedCpuSec, "s");

    // --- simulator host split: count x isolated unit cost ---------------
    const double ev = eventKernelNsPerEvent(1024, 2000000);
    const double ma =
        memNsPerAccess(w.sim.numCores, c.directoryLines, 1000000, a.seed);
    const double cn = coreNsPerNotify(w.sim.numQueues, 1000000, a.seed);
    const double cpuNs = median(plain.sim.runCpuSec) * 1e9;
    const double simS = ratio(events * ev, cpuNs);
    const double memS = ratio(accesses * ma, cpuNs);
    const double coreS = ratio(static_cast<double>(c.snoopLookups) * cn, cpuNs);
    m.add("sim.ns_per_event", ev, "ns");
    m.add("mem.ns_per_access", ma, "ns");
    m.add("core.ns_per_notify", cn, "ns");
    m.add("sim.cpu_s", cpuNs / 1e9, "s");
    m.add("sim.share", simS, "estimate");
    m.add("mem.share", memS, "estimate");
    m.add("core.share", coreS, "estimate");
    m.add("dp.share", 1.0 - simS - memS - coreS, "estimate");

    // --- server stages (traced phases sample every request) -------------
    using hp::telemetry::ServerStage;
    const ServerPhase &L = traced.light, &B = traced.busy;
    // A phase whose server never started has no stage histograms.
    const auto hist = [](const ServerPhase &p, ServerStage s) {
        const auto i = static_cast<unsigned>(s);
        return i < p.stages.size() ? &p.stages[i] : nullptr;
    };
    const auto stage = [&hist](const ServerPhase &p, ServerStage s,
                               double q) {
        const auto *h = hist(p, s);
        return h ? percentile(*h, q).value / 1e3 : 0.0;
    };
    const double busyAnswered = static_cast<double>(B.gen.received());
    const double lightAnswered = static_cast<double>(L.gen.received());
    const auto *e2e = hist(B, ServerStage::EndToEnd);
    m.add("server.stage_samples",
          e2e ? static_cast<double>(e2e->count()) : 0.0, "count");
    m.add("server.rx_admit_p50_us", stage(B, ServerStage::RxAdmit, 0.5), "us");
    m.add("server.admit_doorbell_p50_us",
          stage(B, ServerStage::AdmitDoorbell, 0.5), "us");
    m.add("server.rx_batches", static_cast<double>(B.counters.rxBatches),
          "count");
    m.add("server.pkts_per_rx_batch",
          ratio(static_cast<double>(B.counters.rxPackets),
                static_cast<double>(B.counters.rxBatches)),
          "pkts/batch");
    m.add("server.service_tx_p50_us", stage(B, ServerStage::ServiceTx, 0.5),
          "us");
    m.add("server.service_tx_p99_us", stage(B, ServerStage::ServiceTx, 0.99),
          "us");
    m.add("emu.qwait_service_p50_us", stage(L, ServerStage::QwaitService, 0.5),
          "us");
    m.add("emu.qwait_service_p99_us",
          stage(L, ServerStage::QwaitService, 0.99), "us");
    m.add("emu.requests", lightAnswered, "count");
    m.add("emu.wakeups", static_cast<double>(L.devWakeups), "count");
    m.add("emu.wakeups_per_req",
          ratio(static_cast<double>(L.devWakeups), lightAnswered), "1/req");
    m.add("emu.spurious_wake_ratio",
          ratio(static_cast<double>(L.devSpurious),
                static_cast<double>(L.devWakeups)),
          "ratio");
    m.add("emu.qwait_timeouts", static_cast<double>(L.devTimeouts), "count");
    m.add("emu.handoff_ns", emuHandoffNs(20000), "ns");
    m.add("server.payload_copies_per_req",
          ratio(static_cast<double>(B.counters.payloadCopies), busyAnswered),
          "1/req");
    m.add("queueing.mpmc_ns_per_op", mpmcNsPerOp(2000000), "ns");
    m.add("queueing.queue_drops",
          static_cast<double>(L.counters.queueDrops + B.counters.queueDrops),
          "count");

    // --- app handlers over this workload's flow set --------------------
    const TenantLoad &flows = w.mix.front();
    for (unsigned k = 0; k < hp::app::numAppKinds; ++k) {
        const auto kind = static_cast<hp::app::AppKind>(k);
        m.add(std::string("app.ns_per_req.") + hp::app::statName(kind),
              appNsPerReq(kind, flows.numFlows, flows.shape, a.seed, 200000),
              "ns");
    }
    // The server's app counters over both traced phases.
    const auto app = [&](const std::string &k) {
        const auto get = [&k](const ServerPhase &p) {
            const auto it = p.appStats.find(k);
            return it == p.appStats.end() ? 0.0 : it->second;
        };
        return get(L) + get(B);
    };
    m.add("app.decode_errors",
          app("app.heavy_hitter.decode_errors") +
              app("app.conntrack.decode_errors") +
              app("app.spin_rtt.decode_errors"),
          "count");
    m.add("app.conntrack.misses", app("app.conntrack.misses"), "count");
    m.add("app.conntrack.out_of_order", app("app.conntrack.out_of_order"),
          "count");
    m.add("app.heavy_hitter.promotions", app("app.heavy_hitter.promotions"),
          "count");
    m.add("app.spin_rtt.samples", app("app.spin_rtt.samples"), "count");

    // --- tenants / admission (busy phase) --------------------------------
    m.add("server.answered", busyAnswered, "count");
    m.add("server.shed_rate_limited",
          static_cast<double>(B.counters.shedRateLimited), "count");
    m.add("server.shed_watermark", static_cast<double>(B.counters.shedWatermark),
          "count");
    m.add("server.shed_queue_full",
          static_cast<double>(B.counters.shedQueueFull), "count");
    m.add("server.reject_share",
          ratio(static_cast<double>(B.gen.shed), busyAnswered), "ratio");
    m.add("server.flow_reorders",
          static_cast<double>(L.gen.flowReorders + B.gen.flowReorders),
          "count");

    // --- process: both traced phases -------------------------------------
    const double both = lightAnswered + busyAnswered;
    m.add("proc.requests", both, "count");
    m.add("proc.vcsw_per_req",
          ratio(static_cast<double>(L.usage.vcsw + B.usage.vcsw), both),
          "1/req");
    m.add("proc.ivcsw_per_req",
          ratio(static_cast<double>(L.usage.ivcsw + B.usage.ivcsw), both),
          "1/req");

    // --- residual: client p50 minus server e2e p50 -----------------------
    m.add("residual_p50_us",
          L.gen.p50Us - stage(L, ServerStage::EndToEnd, 0.5), "us");
    m.add("residual_p50_us.busy",
          B.gen.p50Us - stage(B, ServerStage::EndToEnd, 0.5), "us");

    // --- loss, every phase ----------------------------------------------
    std::uint64_t sf = 0, kr = 0, sd = 0, un = 0, at = 0;
    for (const auto &[name, p] :
         {std::pair<const char *, const ServerPhase *>{"light", &plain.light},
          {"busy", &plain.busy},
          {"traced_light", &L},
          {"traced_busy", &B}}) {
        m.add(std::string("loss.unattributed.") + name,
              static_cast<double>(p->loss.unattributed), "count");
        sf += p->loss.sendFail;
        kr += p->loss.kernelRcvbuf;
        sd += p->loss.serverDrops;
        un += p->loss.unattributed;
        at += p->loss.attempted;
    }
    m.add("loss.attempted", static_cast<double>(at), "count");
    m.add("loss.send_fail", static_cast<double>(sf), "count");
    m.add("loss.kernel_rcvbuf", static_cast<double>(kr), "count");
    m.add("loss.server_drops", static_cast<double>(sd), "count");
    m.add("loss.unattributed", static_cast<double>(un), "count");

    // --- generator / host validity -----------------------------------------
    m.add("gen.late_p50_us", median({L.gen.lateP50Us, B.gen.lateP50Us}), "us");
    m.add("gen.late_p99_us", std::max(L.gen.lateP99Us, B.gen.lateP99Us), "us");
    m.add("host.steal_pct", 0.5 * (L.host.stealPct + B.host.stealPct), "%");
    m.add("host.idle_pct", 0.5 * (L.host.idlePct + B.host.idlePct), "%");

    // --- client latency: on a virtual machine it follows the
    //     hypervisor's load more than the program (see README.md), so it
    //     is reported here, without a bound --------------------------------
    const Metrics pe = client(plain), te = client(traced);
    for (const char *k :
         {"p50_us.light", "p99_us.light", "p50_us.busy", "p99_us.busy"})
        m.add(k, pe.get(k), "us");
    m.add("client.samples.light",
          static_cast<double>(plain.light.gen.latencySamples), "count");
    m.add("client.samples.busy",
          static_cast<double>(plain.busy.gen.latencySamples), "count");

    // --- tracing overhead: traced beside untraced client numbers ---------
    for (const auto &[k, v] : pe.all()) {
        m.add("untraced." + k, v.first, "us");
        m.add("traced." + k, te.get(k), "us");
        m.add("trace_overhead." + k, ratio(te.get(k), v.first) - 1.0,
              "ratio");
    }
    return m;
}

int
benchMain(const Args &a)
{
    const Workload *w = findWorkload(a.workload);
    if (!w) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     a.workload.c_str());
        return 2;
    }
    std::vector<std::string> why;
    const Timed plain = runTimed(*w, a, false);
    bool correct = checkTimed(*w, plain, why);
    std::uint64_t attempted =
        plain.light.loss.attempted + plain.busy.loss.attempted;
    std::uint64_t failed =
        failedOps(*w, plain.light) + failedOps(*w, plain.busy);

    Metrics result;
    if (!a.trace) {
        result = endToEnd(plain);
    } else {
        hp::dp::SdpConfig sc = w->sim;
        sc.seed = a.seed;
        sc.trace.enable = true;
        const double c0 = threadCpuSec();
        const hp::dp::SdpResults simTraced = hp::dp::SdpSystem(sc).run();
        const double simTracedCpu = threadCpuSec() - c0;
        if (simTraced.throughputMtps != plain.sim.results.throughputMtps ||
            simTraced.p99LatencyUs != plain.sim.results.p99LatencyUs) {
            correct = false;
            why.push_back("tracing changed simulated results");
        }
        hp::dp::SdpConfig doubled = w->sim;
        doubled.seed = a.seed;
        doubled.measureUs *= 2.0;
        const hp::dp::SdpResults simDoubled = hp::dp::SdpSystem(doubled).run();
        // Below capacity the tail is a property of the load, not of how
        // long the window ran; allow for sampling noise only.
        if (simDoubled.p99LatencyUs > 1.15 * plain.sim.results.p99LatencyUs) {
            correct = false;
            why.push_back("simulated p99 grows with the window: overloaded");
        }

        const Timed traced = runTimed(*w, a, true);
        correct = checkTimed(*w, traced, why) && correct;
        attempted += traced.light.loss.attempted + traced.busy.loss.attempted;
        failed += failedOps(*w, traced.light) + failedOps(*w, traced.busy);
        result = perLayer(*w, a, plain, traced, simTraced, simDoubled,
                          simTracedCpu);
    }

    // Detail report: provenance, per-phase accounting, check failures.
    using hp::stats::jsonString;
    std::string detail = "{\"workload\": " + jsonString(w->name) +
                         ", \"seed\": " + std::to_string(a.seed) +
                         ", \"host\": " + hp::harness::hostJson() +
                         ", \"server_cpu\": " +
                         std::to_string(plain.serverCpu) +
                         ", \"sim_reps\": " +
                         std::to_string(plain.sim.runCpuSec.size()) +
                         ", \"light\": " + phaseJson(plain.light) +
                         ", \"busy\": " + phaseJson(plain.busy) +
                         ", \"check_failures\": [";
    for (std::size_t i = 0; i < why.size(); ++i)
        detail += (i ? ", " : "") + jsonString(why[i]);
    detail += "]}";
    std::printf("%s\n", detail.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                result.json().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::string(argv[1]) == "--generator") {
        GenConfig g;
        const std::vector<std::string> rest(argv + 2, argv + argc);
        if (!GenConfig::fromArgs(rest, g))
            return 2;
        return generatorMain(g);
    }
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1>\n");
        return 2;
    }
    return benchMain(a);
}
