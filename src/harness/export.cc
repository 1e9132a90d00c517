#include "harness/export.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "sim/logging.hh"
#include "stats/json.hh"
#include "telemetry/build_info.hh"

namespace hyperplane {
namespace harness {

std::string
resultsJson(const dp::SdpResults &r)
{
    std::ostringstream os;
    bool first = true;
    auto field = [&os, &first](const char *name, double v) {
        if (!first)
            os << ',';
        first = false;
        os << stats::jsonString(name) << ':' << stats::jsonNumber(v);
    };
    auto ufield = [&field](const char *name, std::uint64_t v) {
        field(name, static_cast<double>(v));
    };

    os << '{';
    field("throughput_mtps", r.throughputMtps);
    ufield("completions", r.completions);
    ufield("generated", r.generated);
    ufield("dropped", r.dropped);
    field("avg_latency_us", r.avgLatencyUs);
    field("p50_latency_us", r.p50LatencyUs);
    field("p99_latency_us", r.p99LatencyUs);
    field("p999_latency_us", r.p999LatencyUs);
    field("max_latency_us", r.maxLatencyUs);
    field("ipc", r.ipc);
    field("useful_ipc", r.usefulIpc);
    field("useless_ipc", r.uselessIpc);
    field("active_fraction", r.activeFraction);
    field("active_ipc", r.activeIpc);
    field("avg_core_power_w", r.avgCorePowerW);
    field("co_runner_ipc", r.coRunnerIpc);
    field("avg_polls_per_task", r.avgPollsPerTask);
    ufield("spurious_wakeups", r.spuriousWakeups);
    ufield("stolen_grants", r.stolenGrants);
    ufield("interrupts", r.interrupts);
    field("background_ipc", r.backgroundIpc);
    field("e2e_avg_latency_us", r.e2eAvgLatencyUs);
    field("e2e_p99_latency_us", r.e2eP99LatencyUs);
    ufield("snoops_dropped", r.snoopsDropped);
    ufield("snoops_delayed", r.snoopsDelayed);
    ufield("lost_injected", r.lostInjected);
    ufield("watchdog_recoveries", r.watchdogRecoveries);
    ufield("self_recoveries", r.selfRecoveries);
    ufield("lost_outstanding", r.lostOutstanding);
    ufield("wakes_suppressed", r.wakesSuppressed);
    ufield("wake_refires", r.wakeRefires);
    ufield("spurious_injected", r.spuriousInjected);
    ufield("storm_writes", r.stormWrites);
    ufield("watchdog_sweeps", r.watchdogSweeps);
    ufield("demotions", r.demotions);
    ufield("promotions", r.promotions);
    ufield("fallback_tasks", r.fallbackTasks);
    ufield("stuck_queues", r.stuckQueues);
    ufield("breakdown_samples", r.breakdownSamples);
    ufield("breakdown_incomplete", r.breakdownIncomplete);
    field("avg_doorbell_to_snoop_us", r.avgDoorbellToSnoopUs);
    field("avg_snoop_to_ready_us", r.avgSnoopToReadyUs);
    field("avg_ready_to_grant_us", r.avgReadyToGrantUs);
    field("avg_grant_to_completion_us", r.avgGrantToCompletionUs);
    field("breakdown_e2e_avg_us", r.breakdownE2eAvgUs);
    field("breakdown_e2e_p99_us", r.breakdownE2eP99Us);
    ufield("trace_events", r.traceEvents);
    ufield("trace_dropped", r.traceDropped);
    os << '}';
    return os.str();
}

std::string
hostJson(unsigned jobs)
{
    const telemetry::BuildInfo &bi = telemetry::buildInfo();
    std::ostringstream os;
    os << "{\"hardware_concurrency\":"
       << std::thread::hardware_concurrency()
       << ",\"git_sha\":" << stats::jsonString(bi.gitSha)
       << ",\"build_type\":" << stats::jsonString(bi.buildType)
       << ",\"compiler\":" << stats::jsonString(bi.compiler)
       << ",\"cpu_features\":" << stats::jsonString(bi.cpuFeatures)
       << ",\"simd\":{\"checksum\":" << stats::jsonString(bi.simdChecksum)
       << ",\"crc32c\":" << stats::jsonString(bi.simdCrc32c)
       << ",\"header_check\":" << stats::jsonString(bi.simdHeaderCheck)
       << ",\"force_scalar\":" << (bi.forcedScalar ? "true" : "false")
       << '}';
    if (jobs)
        os << ",\"jobs\":" << jobs;
    os << '}';
    return os.str();
}

std::string
loadSweepJson(const std::vector<NamedSweep> &sweeps)
{
    std::ostringstream os;
    os << "{\"sweeps\":[";
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        if (i != 0)
            os << ',';
        os << "\n{\"name\":" << stats::jsonString(sweeps[i].name)
           << ",\"points\":[";
        const auto &pts = sweeps[i].points;
        for (std::size_t j = 0; j < pts.size(); ++j) {
            if (j != 0)
                os << ',';
            os << "\n{\"load\":" << stats::jsonNumber(pts[j].loadFraction)
               << ",\"results\":" << resultsJson(pts[j].results) << '}';
        }
        os << "]}";
    }
    os << "\n]}\n";
    return os.str();
}

const char *
argValue(int argc, char **argv, const char *flag)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    }
    return nullptr;
}

bool
argPresent(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    }
    return false;
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path);
    if (!f) {
        hp_warn("cannot open '%s' for writing", path.c_str());
        return false;
    }
    f << text;
    f.close();
    std::printf("wrote %s\n", path.c_str());
    return true;
}

} // namespace harness
} // namespace hyperplane
