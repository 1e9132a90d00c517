/**
 * @file
 * SdpSystem: assembles a complete simulated software data plane and runs
 * one experiment point.
 *
 * The system owns the event queue, the MESI memory hierarchy, the queue
 * set, the traffic source, the workload, the data-plane cores, and — for
 * HyperPlane planes — one QwaitUnit per queue cluster (matching the
 * partitioned ready-set configurations of Section V-C).  run() executes
 * a warmup phase, clears statistics, measures, and returns the digested
 * results every figure of the paper is built from.
 */

#ifndef HYPERPLANE_DP_SDP_SYSTEM_HH
#define HYPERPLANE_DP_SDP_SYSTEM_HH

#include <iosfwd>
#include <memory>
#include <vector>

#include "core/qwait_unit.hh"
#include "dp/dp_core.hh"
#include "dp/hyperplane_core.hh"
#include "fault/fallback_set.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "fault/watchdog.hh"
#include "dp/smt_corunner.hh"
#include "dp/tenant_model.hh"
#include "dp/tenant_spec.hh"
#include "power/core_power.hh"
#include "stats/histogram.hh"
#include "stats/registry.hh"
#include "trace/latency_breakdown.hh"
#include "trace/timeseries.hh"
#include "trace/flight_recorder.hh"
#include "trace/trace_config.hh"
#include "traffic/poisson_source.hh"
#include "traffic/shapes.hh"
#include "workloads/workload.hh"

namespace hyperplane {
namespace dp {

/** Which notification mechanism the data plane uses. */
enum class PlaneKind : std::uint8_t
{
    Spinning,          ///< DPDK-style spin-polling baseline
    HyperPlane,        ///< hardware monitoring + ready set
    HyperPlaneSwReady, ///< hardware monitoring, software ready set
    InterruptDriven,   ///< conventional kernel-interrupt baseline
};

const char *toString(PlaneKind k);

/** Queue-to-core organization (Section V-C). */
enum class QueueOrg : std::uint8_t
{
    ScaleOut,   ///< each core owns a private queue subset
    ScaleUp2,   ///< 2-core clusters share queue subsets
    ScaleUpAll, ///< all cores share all queues
};

const char *toString(QueueOrg o);

/** Full experiment-point configuration. */
struct SdpConfig
{
    PlaneKind plane = PlaneKind::HyperPlane;
    unsigned numCores = 1;
    unsigned numQueues = 100;
    workloads::Kind workload = workloads::Kind::PacketEncapsulation;
    traffic::Shape shape = traffic::Shape::FB;
    /** Total offered arrival rate, tasks/second. */
    double offeredRatePerSec = 1e5;
    QueueOrg org = QueueOrg::ScaleUpAll;
    core::ServicePolicy policy = core::ServicePolicy::RoundRobin;
    /** Power-optimized HyperPlane: halt into C1. */
    bool powerOptimized = false;
    /** Items dequeued per QWAIT return. */
    unsigned batchSize = 1;
    /** End-to-end QWAIT latency, cycles (Section IV-C: 50). */
    Tick qwaitLatency = 50;
    /** Kernel interrupt delivery cost for the interrupt plane, us. */
    double interruptUs = 1.5;
    /** NUMA-style work stealing across partitioned ready sets. */
    bool workStealing = false;
    /** Interconnect cost per remote ready-set probe, cycles. */
    Tick stealExtraCycles = 90;
    /** Flow-stateful in-order queues (reconsider after processing). */
    bool inOrderQueues = false;
    /** Background-task quantum for non-blocking QWAIT; 0 = halt. */
    Tick backgroundQuantum = 0;
    /** Model the tenant-side receive path (Figure 2 steps 2d-3). */
    bool modelTenants = false;
    TenantParams tenant{};
    /**
     * Multi-tenant QoS: tenants mapped to disjoint queue groups with
     * per-group WRR weights.  Empty = one implicit tenant, no QoS.
     * Shared with the emulated server (server::TenantTable).
     */
    std::vector<TenantSpec> tenants{};
    ServiceJitter jitter = ServiceJitter::Exponential;
    /** Static load imbalance across active queues (Figure 10b). */
    double imbalance = 0.0;
    double warmupUs = 2000.0;
    double measureUs = 20000.0;
    /** 0 = use the workload's default payload size. */
    std::uint32_t payloadBytes = 0;
    std::size_t maxQueueDepth = 512;
    std::uint64_t seed = 1;
    CoreTimingParams timing{};
    power::PowerParams power{};
    SmtParams smt{};
    /**
     * Monitoring-set geometry.  Capacity 0 auto-sizes each cluster's
     * table to its queue span + 25% over-provisioning (the paper's
     * regime); nonzero values pin the per-cluster capacity, which is
     * how the saturation/degradation tests force demotions.
     */
    unsigned monitoringCapacity = 0;
    unsigned monitoringWays = 4;
    unsigned monitoringBanks = 1;
    unsigned monitoringMaxWalkSteps = 64;
    /** Fault campaign to inject (defaults to all-zero: no faults). */
    fault::FaultPlan fault{};
    /** Recovery mechanisms (watchdog sweep, graceful degradation). */
    fault::RecoveryConfig recovery{};
    /** Observability: event tracing, latency breakdown, sampling. */
    trace::TraceConfig trace{};

    /**
     * Reject degenerate configurations with a descriptive
     * std::invalid_argument instead of downstream UB/asserts.  Called
     * at the top of SdpSystem construction.
     */
    void validate() const;
};

/** Digested results of one experiment point. */
struct SdpResults
{
    double throughputMtps = 0.0; ///< million tasks per second
    std::uint64_t completions = 0;
    std::uint64_t generated = 0;
    std::uint64_t dropped = 0;
    double avgLatencyUs = 0.0;
    double p50LatencyUs = 0.0;
    double p99LatencyUs = 0.0;
    double p999LatencyUs = 0.0;
    double maxLatencyUs = 0.0;
    double ipc = 0.0;        ///< whole-window IPC, averaged over cores
    double usefulIpc = 0.0;  ///< useful-instruction component
    double uselessIpc = 0.0; ///< spinning component
    double activeFraction = 0.0; ///< non-halted fraction of core time
    double activeIpc = 0.0;      ///< IPC while active
    double avgCorePowerW = 0.0;
    double coRunnerIpc = 0.0; ///< SMT co-runner model output
    double avgPollsPerTask = 0.0;
    std::uint64_t spuriousWakeups = 0;
    std::uint64_t stolenGrants = 0;   ///< work-stealing remote grants
    std::uint64_t interrupts = 0;     ///< interrupt plane: IRQs taken
    double backgroundIpc = 0.0;       ///< non-blocking QWAIT bg work
    /** End-to-end (tenant-held) latency, when modelTenants is set. */
    double e2eAvgLatencyUs = 0.0;
    double e2eP99LatencyUs = 0.0;

    // --- Fault campaign + recovery accounting (tentpole) -------------

    std::uint64_t snoopsDropped = 0;
    std::uint64_t snoopsDelayed = 0;
    /** Drops that opened a lost-notification episode. */
    std::uint64_t lostInjected = 0;
    std::uint64_t watchdogRecoveries = 0;
    std::uint64_t selfRecoveries = 0;
    /** Lost episodes still open when the run ended. */
    std::uint64_t lostOutstanding = 0;
    std::uint64_t wakesSuppressed = 0;
    std::uint64_t wakeRefires = 0;
    std::uint64_t spuriousInjected = 0;
    std::uint64_t stormWrites = 0;
    std::uint64_t watchdogSweeps = 0;
    std::uint64_t demotions = 0;
    std::uint64_t promotions = 0;
    /** Tasks served via the software-polled fallback path. */
    std::uint64_t fallbackTasks = 0;
    /** Queues stranded at end of run: nonempty + armed + not ready +
     *  not software-polled (0 whenever recovery is working). */
    std::uint64_t stuckQueues = 0;

    // --- Observability (trace.enable) --------------------------------

    /** Notification episodes with a full per-stage record. */
    std::uint64_t breakdownSamples = 0;
    /** Episodes closed without one (e.g. fallback-served). */
    std::uint64_t breakdownIncomplete = 0;
    /** Mean per-stage latencies, us (sum == breakdownE2eAvgUs). */
    double avgDoorbellToSnoopUs = 0.0;
    double avgSnoopToReadyUs = 0.0;
    double avgReadyToGrantUs = 0.0;
    double avgGrantToCompletionUs = 0.0;
    double breakdownE2eAvgUs = 0.0;
    double breakdownE2eP99Us = 0.0;
    /** Events recorded / evicted by the trace ring buffer. */
    std::uint64_t traceEvents = 0;
    std::uint64_t traceDropped = 0;
};

/** One simulated software-data-plane instance. */
class SdpSystem
{
  public:
    explicit SdpSystem(const SdpConfig &cfg);
    ~SdpSystem();

    SdpSystem(const SdpSystem &) = delete;
    SdpSystem &operator=(const SdpSystem &) = delete;

    /** Run warmup + measurement; returns the digested results. */
    SdpResults run();

    // --- component access (tests, custom experiments) ----------------

    const SdpConfig &config() const { return cfg_; }
    EventQueue &eventQueue() { return eq_; }
    mem::MemorySystem &memory() { return *mem_; }
    queueing::QueueSet &queues() { return queues_; }
    workloads::Workload &workload() { return *workload_; }
    traffic::PoissonSource &source() { return *source_; }

    /** Number of queue clusters (1 for scale-up-all). */
    unsigned numClusters() const;

    /** The QwaitUnit of a cluster (null for spinning planes). */
    core::QwaitUnit *qwaitUnit(unsigned cluster);

    /** The fault injector (null when the plan is all-zero). */
    fault::FaultInjector *faultInjector() { return faults_.get(); }

    /** The watchdog (null unless recovery machinery is enabled). */
    fault::Watchdog *watchdog() { return watchdog_.get(); }

    /** A cluster's fallback set (null without graceful degradation). */
    fault::FallbackSet *fallbackSet(unsigned cluster);

    /**
     * Queues currently stranded: nonempty, hardware-monitored with the
     * entry armed, not in the ready set, and not software-polled — the
     * lost-notification end state recovery must prevent.
     */
    std::uint64_t stuckQueues() const;

    DataPlaneCore &core(unsigned idx) { return *cores_[idx]; }

    /** Latency distribution of the measurement window, microseconds. */
    const stats::LogHistogram &latencyHistogram() const
    {
        return latency_;
    }

    /** Tenant-side model (null unless config().modelTenants). */
    TenantModel *tenants() { return tenants_.get(); }

    /** Per-queue weights after shape + imbalance application. */
    const std::vector<double> &weights() const { return weights_; }

    /** The flight recorder (null unless config().trace.enable). */
    trace::FlightRecorder *tracer() { return tracer_.get(); }

    /** The per-stage latency breakdown (null when not tracing). */
    trace::LatencyBreakdown *breakdown() { return breakdown_.get(); }

    /** Sampled counter time series (null unless trace.sampleEveryUs). */
    const trace::TimeSeries *timeSeries() const
    {
        return sampler_ ? &sampler_->series() : nullptr;
    }

    /** The system's stat registry (populated at construction). */
    const stats::Registry &registry() const { return registry_; }

    /** Export the event buffer as Chrome/Perfetto trace JSON. */
    void writeChromeTrace(std::ostream &os) const;

    /**
     * Dump every component's statistics as sorted "path = value" lines
     * (gem5-style stats report).
     */
    void dumpStats(std::ostream &os) const;

  private:
    void build();
    void registerStats();
    unsigned clusterOf(QueueId qid) const;
    void onArrival(QueueId qid, const queueing::WorkItem &item);
    void onCompletion(const queueing::WorkItem &item, Tick when);
    SdpResults digest(Tick windowTicks);

    // --- fault wiring -------------------------------------------------
    /** Wake one halted core of @p cluster. @return true if one woke. */
    bool deliverWake(unsigned cluster);
    /** Map a registered snooper back to its QwaitUnit. */
    core::QwaitUnit *unitForSnooper(mem::Snooper *s);
    /** Deliver a (possibly delayed) snoop, keeping the lost ledger. */
    void deliverSnoop(mem::Snooper *target, Addr line, CoreId writer);
    /** Snoop-path interposition: drop / delay / deliver + ledger. */
    bool interposeSnoop(Addr line, CoreId writer, mem::Snooper *target);
    /** Bind one queue with one QWAIT-ADD; demote on failure. */
    void bindQueue(core::QwaitUnit &unit, unsigned cluster, QueueId qid);
    void scheduleSpuriousWake();
    void scheduleStormBurst();

    SdpConfig cfg_;
    EventQueue eq_;
    std::unique_ptr<mem::MemorySystem> mem_;
    queueing::QueueSet queues_;
    std::unique_ptr<workloads::Workload> workload_;
    std::vector<double> weights_;
    std::vector<std::unique_ptr<core::QwaitUnit>> qwaitUnits_;
    std::vector<std::unique_ptr<DataPlaneCore>> cores_;
    /** Per-cluster ready-item counters for spinning fast-forward. */
    std::vector<std::uint64_t> clusterBacklogs_;
    /** Cluster id of each core. */
    std::vector<unsigned> coreCluster_;
    std::unique_ptr<traffic::PoissonSource> source_;
    std::unique_ptr<TenantModel> tenants_;
    std::unique_ptr<fault::FaultInjector> faults_;
    /** One fallback set per cluster (entries null w/o degradation). */
    std::vector<std::unique_ptr<fault::FallbackSet>> fallbacks_;
    std::unique_ptr<fault::Watchdog> watchdog_;
    std::unique_ptr<trace::FlightRecorder> tracer_;
    std::unique_ptr<trace::LatencyBreakdown> breakdown_;
    std::unique_ptr<trace::RegistrySampler> sampler_;
    stats::Registry registry_;
    stats::LogHistogram latency_{0.01, 1.02, 2048};
    bool measuring_ = false;
    Tick measureStart_ = 0;
    std::uint64_t completions_ = 0;
};

/** Convenience: build + run in one call. */
SdpResults runSdp(const SdpConfig &cfg);

} // namespace dp
} // namespace hyperplane

#endif // HYPERPLANE_DP_SDP_SYSTEM_HH
