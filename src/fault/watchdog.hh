/**
 * @file
 * Lost-notification watchdog: a periodic sim event that audits every
 * cluster's armed-but-nonempty queues.
 *
 * A dropped doorbell snoop leaves the monitoring entry armed while the
 * doorbell already advertises work — the one state Algorithm 1 cannot
 * reach on its own, and the one that strands a queue forever.  The sweep
 * runs the QWAIT-VERIFY predicate over every bound queue and replays the
 * missing activation when it finds that state.  It also (a) retries
 * QWAIT-ADD for queues demoted to the software-polled fallback set,
 * promoting them back once monitoring capacity frees, and (b) re-fires
 * the wake path when the ready set is nonempty but every core slept
 * through the (possibly suppressed) wake callback.
 */

#ifndef HYPERPLANE_FAULT_WATCHDOG_HH
#define HYPERPLANE_FAULT_WATCHDOG_HH

#include <functional>
#include <vector>

#include "core/qwait_unit.hh"
#include "fault/fallback_set.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "queueing/task_queue.hh"
#include "sim/event_queue.hh"
#include "stats/counter.hh"
#include "trace/flight_recorder.hh"

namespace hyperplane {
namespace fault {

/** One queue cluster as the watchdog sees it. */
struct WatchdogCluster
{
    core::QwaitUnit *unit = nullptr;
    /** Demoted queues of this cluster; may be null (no degradation). */
    FallbackSet *fallback = nullptr;
    /** Queues bound to this cluster, ascending. */
    std::vector<QueueId> qids;
    /**
     * Deliver a wake to the cluster's cores, bypassing any injected
     * wake suppression.  Returns true if a halted core woke.
     */
    std::function<bool()> deliverWake;
};

class Watchdog
{
  public:
    /**
     * @param injector May be null (watchdog without fault injection);
     *                 used for the lost ledger.
     */
    Watchdog(EventQueue &eq, queueing::QueueSet &queues,
             std::vector<WatchdogCluster> clusters,
             FaultInjector *injector, const RecoveryConfig &cfg);

    /** Arm the periodic sweep event. */
    void start();

    /** Stop rescheduling sweeps. */
    void stop();

    /** Run one sweep immediately (tests, end-of-run audits). */
    void sweepOnce();

    /** Attach a flight recorder; events stamp on the watchdog track. */
    void setTracer(trace::FlightRecorder *tracer) { tracer_ = tracer; }

    stats::Counter sweeps{"watchdog_sweeps"};
    /** Lost-ledger queues rescued by a sweep. */
    stats::Counter recoveries{"watchdog_recoveries"};
    /** Sweep rescues of queues not in the lost ledger (a delayed snoop
     *  still in flight; the replayed activation wins the race). */
    stats::Counter earlyRecoveries{"watchdog_early_recoveries"};
    /** Ready-but-everyone-asleep wake re-fires. */
    stats::Counter wakeRefires{"watchdog_wake_refires"};
    stats::Counter promotions{"watchdog_promotions"};

  private:
    void scheduleNext();
    void sweepCluster(WatchdogCluster &c);

    EventQueue &eq_;
    queueing::QueueSet &queues_;
    std::vector<WatchdogCluster> clusters_;
    FaultInjector *injector_;
    RecoveryConfig cfg_;
    Tick periodTicks_;
    bool running_ = false;
    trace::FlightRecorder *tracer_ = nullptr;
};

} // namespace fault
} // namespace hyperplane

#endif // HYPERPLANE_FAULT_WATCHDOG_HH
