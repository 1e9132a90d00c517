/**
 * @file
 * Seeded, deterministic fault injector.
 *
 * Each fault concern (snoop drops, snoop delays, wake suppression,
 * spurious wakes, storms) draws from its own Rng stream, so enabling one
 * dimension does not perturb the draw sequence of another and a fixed
 * (plan, seed) pair reproduces a campaign bit-for-bit.
 *
 * The injector also keeps the lost-notification ledger: a queue enters
 * the lost set when a snoop that would have armed->activated it is
 * dropped, and leaves it when either the watchdog replays the
 * activation (recordWatchdogRecovery) or a later snoop for the same
 * doorbell happens to get through (recordSelfRecovery).  The ledger
 * invariant checked by the campaign tests is
 *
 *     lostInjected == watchdogRecovered + selfRecovered + outstanding
 */

#ifndef HYPERPLANE_FAULT_FAULT_INJECTOR_HH
#define HYPERPLANE_FAULT_FAULT_INJECTOR_HH

#include <optional>
#include <unordered_set>

#include "fault/fault_plan.hh"
#include "sim/rng.hh"
#include "sim/types.hh"
#include "stats/counter.hh"

namespace hyperplane {
namespace fault {

class FaultInjector
{
  public:
    FaultInjector(const FaultPlan &plan, std::uint64_t seed);

    const FaultPlan &plan() const { return plan_; }

    // --- Per-opportunity rolls (each counts its own hits) ------------

    /** Should this doorbell snoop be dropped? */
    bool rollDropSnoop();

    /** Should this doorbell snoop be delayed?  Returns the delay. */
    std::optional<Tick> rollDelaySnoop();

    /** Should this wake callback be swallowed? */
    bool rollSuppressWake();

    // --- Free-running injector schedules -----------------------------

    /** Exponential gap to the next spurious activation, microseconds. */
    double nextSpuriousGapUs();

    /** Exponential gap to the next storm burst, microseconds. */
    double nextStormGapUs();

    /** Uniform victim pick for a spurious activation. */
    std::uint64_t pickSpuriousTarget(std::uint64_t bound);

    /** Uniform victim pick for a storm burst. */
    std::uint64_t pickStormTarget(std::uint64_t bound);

    // --- Lost-notification ledger ------------------------------------

    /**
     * A drop hit an armed monitoring entry for @p qid: the queue now
     * holds work the hardware will never hear about.
     * @return true if this opens a new lost episode (the queue was not
     *         already lost).
     */
    bool recordLost(QueueId qid);

    /** The watchdog sweep replayed the activation for @p qid.
     *  @return true if the queue was in the lost set. */
    bool recordWatchdogRecovery(QueueId qid);

    /** A delivered snoop reached a lost queue's armed entry.
     *  @return true if the queue was in the lost set. */
    bool recordSelfRecovery(QueueId qid);

    /** True while @p qid has an open lost episode. */
    bool isLost(QueueId qid) const { return lost_.count(qid) != 0; }

    /** Lost episodes not yet recovered. */
    std::size_t outstandingLost() const { return lost_.size(); }

    stats::Counter snoopsDropped{"snoops_dropped"};
    /** Drops that hit an unarmed/unmonitored line (no work lost). */
    stats::Counter harmlessDrops{"harmless_drops"};
    stats::Counter snoopsDelayed{"snoops_delayed"};
    stats::Counter wakesSuppressed{"wakes_suppressed"};
    stats::Counter spuriousInjected{"spurious_wakes_injected"};
    stats::Counter stormWrites{"storm_doorbell_writes"};
    stats::Counter lostInjected{"lost_notifications_injected"};
    stats::Counter watchdogRecovered{"lost_recovered_by_watchdog"};
    stats::Counter selfRecovered{"lost_recovered_by_later_snoop"};

  private:
    FaultPlan plan_;
    Rng dropRng_;
    Rng delayRng_;
    Rng suppressRng_;
    Rng spuriousRng_;
    Rng stormRng_;
    /** Queues with an open lost-notification episode. */
    std::unordered_set<QueueId> lost_;
};

} // namespace fault
} // namespace hyperplane

#endif // HYPERPLANE_FAULT_FAULT_INJECTOR_HH
