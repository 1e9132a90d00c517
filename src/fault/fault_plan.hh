/**
 * @file
 * Declarative fault-campaign description (FaultPlan) and the matching
 * recovery knobs (RecoveryConfig).
 *
 * A FaultPlan lists the failure modes a run injects — lost or delayed
 * doorbell snoops, suppressed or spurious wake-ups, and doorbell storms
 * from a misbehaving tenant.
 * All rates are probabilities per opportunity (or events per second for
 * the free-running injectors) and all draws come from seeded per-concern
 * Rng streams inside FaultInjector, so a campaign is bit-reproducible.
 *
 * RecoveryConfig enables the two defence mechanisms: the periodic
 * watchdog sweep (QWAIT-VERIFY over armed-but-nonempty queues) and
 * graceful degradation of queues to a software-polled fallback set when
 * the monitoring set cannot hold them.
 */

#ifndef HYPERPLANE_FAULT_FAULT_PLAN_HH
#define HYPERPLANE_FAULT_FAULT_PLAN_HH

#include "sim/types.hh"

namespace hyperplane {
namespace fault {

/** What to break, and how often. */
struct FaultPlan
{
    /** Probability a doorbell write snoop is silently dropped. */
    double dropSnoopRate = 0.0;
    /** Probability a doorbell write snoop is delayed in flight. */
    double delaySnoopRate = 0.0;
    /** Mean of the exponential snoop-delay distribution, microseconds. */
    double delayMeanUs = 2.0;
    /** Probability a wake callback to the cores is swallowed. */
    double suppressWakeRate = 0.0;
    /** Rate of spurious ready-set activations, events per second. */
    double spuriousWakesPerSec = 0.0;
    /** Rate of doorbell-storm bursts from a misbehaving tenant,
     *  bursts per second (0 disables the storm tenant). */
    double stormRatePerSec = 0.0;
    /** Doorbell writes per storm burst. */
    unsigned stormBurst = 8;
    /** Fixed storm victim queue; invalidQueueId picks one at random
     *  per burst. */
    QueueId stormQueue = invalidQueueId;

    /** True if any fault dimension is active. */
    bool
    any() const
    {
        return dropSnoopRate > 0.0 || delaySnoopRate > 0.0 ||
               suppressWakeRate > 0.0 || spuriousWakesPerSec > 0.0 ||
               stormRatePerSec > 0.0;
    }
};

/** How the system defends itself. */
struct RecoveryConfig
{
    /** Enable the periodic lost-notification watchdog sweep. */
    bool watchdog = false;
    /** Watchdog sweep period, microseconds. */
    double watchdogPeriodUs = 25.0;
    /**
     * Demote queues the monitoring set cannot hold to a software-polled
     * fallback set instead of failing QWAIT-ADD hard; the watchdog
     * retries promotion once capacity frees.
     */
    bool gracefulDegradation = false;
    /** Fallback-set software polling period, core cycles. */
    Tick fallbackPollPeriod = 3000;

    bool enabled() const { return watchdog || gracefulDegradation; }
};

} // namespace fault
} // namespace hyperplane

#endif // HYPERPLANE_FAULT_FAULT_PLAN_HH
