/**
 * @file
 * The software-polled fallback set: queues the monitoring set could not
 * (or should not) hold.
 *
 * When QWAIT-ADD fails — a Cuckoo conflict or capacity exhaustion —
 * graceful degradation demotes the queue here instead of failing.
 * HyperPlane cores sweep the set with a bounded-period software poll
 * (the DPDK-style tight loop), so a demoted queue keeps making progress
 * at polling latency instead of stranding.  The watchdog retries
 * QWAIT-ADD for demoted queues and promotes them back once
 * monitoring-set capacity frees.
 *
 * Membership is kept in an insertion-ordered vector: sweeps iterate it
 * deterministically and the sets stay small (demotion is the exception,
 * not the rule).
 */

#ifndef HYPERPLANE_FAULT_FALLBACK_SET_HH
#define HYPERPLANE_FAULT_FALLBACK_SET_HH

#include <vector>

#include "sim/types.hh"
#include "stats/counter.hh"

namespace hyperplane {
namespace fault {

/** Demoted-queue membership + accounting for one queue cluster. */
class FallbackSet
{
  public:
    /**
     * Demote @p qid into the fallback set.
     * @return false if it is already a member.
     */
    bool add(QueueId qid);

    /**
     * Promote @p qid out of the fallback set.
     * @return false if it was not a member.
     */
    bool remove(QueueId qid);

    bool contains(QueueId qid) const;

    bool empty() const { return qids_.empty(); }
    std::size_t size() const { return qids_.size(); }

    /** Members in demotion order (sweep iteration order). */
    const std::vector<QueueId> &queues() const { return qids_; }

    stats::Counter demotions{"demotions"};
    stats::Counter promotions{"promotions"};
    stats::Counter polls{"fallback_polls"};
    stats::Counter tasksServed{"fallback_tasks_served"};

  private:
    std::vector<QueueId> qids_;
};

} // namespace fault
} // namespace hyperplane

#endif // HYPERPLANE_FAULT_FALLBACK_SET_HH
