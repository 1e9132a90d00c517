/**
 * @file
 * Software emulation of the HyperPlane programming model.
 *
 * EmuHyperPlane gives real applications the Algorithm 1 API today, with
 * no hardware: producers ring per-queue doorbells from any thread, and
 * consumer (data-plane) threads block in qwait() until a queue is ready,
 * receiving QIDs in service-policy order from the same ReadySet logic
 * the simulated hardware uses.  Code written against this interface maps
 * 1:1 onto the accelerated instructions:
 *
 *   addQueue/removeQueue  <->  QWAIT-ADD / QWAIT-REMOVE
 *   qwait                 <->  QWAIT (halting wait)
 *   take                  <->  QWAIT-VERIFY + dequeue +
 *                              QWAIT-RECONSIDER (atomic)
 *   enable/disable        <->  QWAIT-ENABLE / QWAIT-DISABLE
 *
 * Synchronization uses one mutex + condition variable; this is the
 * *correctness* front-end, not a performance claim (the paper's point is
 * precisely that software implementations cannot match the hardware).
 *
 * Wakeups are *targeted*: a state change notifies one waiter per queue
 * that just became grantable (not-ready -> ready while enabled), never
 * a broadcast.  Under bursty producers (the UDP server's RX threads)
 * broadcast wakes turn every doorbell into a thundering herd where all
 * but one woken worker finds nothing; with targeted wakes the number of
 * notified waiters matches the number of newly-grantable queues.  The
 * residual wakes that still find nothing (a racing qwaitNonBlocking, a
 * pthread-level spurious return) are counted in spuriousWakes.  A notify
 * is only issued while some parked waiter has not already been claimed
 * by an earlier notify, so wakeups never exceed the waiters there are.
 *
 * A producer that will serve its own work can defer the wake: it rings
 * with Wake::Deferred, takes a grant itself, and then calls
 * wakeOneIfGrantable(), which wakes one waiter only if work is left.
 * Below capacity the ringer serves everything it rang and nobody wakes.
 */

#ifndef HYPERPLANE_EMU_EMU_HYPERPLANE_HH
#define HYPERPLANE_EMU_EMU_HYPERPLANE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/ready_set.hh"
#include "sim/types.hh"
#include "stats/counter.hh"
#include "stats/registry.hh"

namespace hyperplane {
namespace emu {

/** Software QWAIT device shared by producer and consumer threads. */
class EmuHyperPlane
{
  public:
    /**
     * @param maxQueues Capacity of the notification structures.
     * @param policy    Service policy for QID selection.
     */
    explicit EmuHyperPlane(
        unsigned maxQueues,
        core::ServicePolicy policy = core::ServicePolicy::RoundRobin);

    // --- Control plane ------------------------------------------------

    /**
     * Register a queue (QWAIT-ADD).
     * @return The new QID, or std::nullopt if capacity is exhausted.
     */
    std::optional<QueueId> addQueue();

    /** Unregister a queue (QWAIT-REMOVE). */
    void removeQueue(QueueId qid);

    // --- Producer side ------------------------------------------------

    /** Who wakes a waiter for a ring that made a queue grantable. */
    enum class Wake
    {
        Now,      ///< ring() wakes one waiter itself
        Deferred, ///< the ringer calls wakeOneIfGrantable() later
    };

    /**
     * Ring the doorbell: advertise @p n new items in @p qid and, with
     * Wake::Now, wake one waiting consumer if the queue just became
     * grantable.
     */
    void ring(QueueId qid, std::uint64_t n = 1, Wake wake = Wake::Now);

    /**
     * Close a run of Wake::Deferred rings: wake one parked waiter if
     * more queues are grantable than notifies already on their way
     * (take()'s RECONSIDER may have sent one for a residual).  Call it
     * after serving a grant yourself, so nobody is woken for work
     * already done.
     * @return true if a notify was issued.
     */
    bool wakeOneIfGrantable();

    // --- Consumer (data-plane) side ------------------------------------

    /** qwait() timeout that never expires (a halted core). */
    static constexpr auto forever = std::chrono::nanoseconds::max();

    /**
     * Block until some queue is ready (QWAIT).
     *
     * @param timeout Give up after this long; forever never gives up.
     * @return The next ready QID per the service policy, or std::nullopt
     *         on timeout or once the device is closed.
     */
    std::optional<QueueId> qwait(
        std::chrono::nanoseconds timeout = std::chrono::seconds(1));

    /**
     * Wake every parked waiter; every qwait() from now on returns
     * std::nullopt at once, not counted as a timeout.  Irreversible.
     */
    void close();

    /** Non-blocking QWAIT variant (background-task pattern, Sec III-A). */
    std::optional<QueueId> qwaitNonBlocking();

    /**
     * Claim up to @p maxItems from @p qid — the VERIFY + dequeue +
     * RECONSIDER sequence, atomic with respect to ring().  If items
     * remain after the claim, the queue is re-activated and one more
     * waiter is notified so the residual is not stranded until the next
     * ring.
     *
     * @return Number of items claimed (0 on a spurious wake-up).
     */
    std::uint64_t take(QueueId qid, std::uint64_t maxItems = 1);

    /** QWAIT-ENABLE / QWAIT-DISABLE. */
    void enable(QueueId qid);
    void disable(QueueId qid);

    /** WRR weight control. */
    void setWeight(QueueId qid, std::uint32_t weight);

    /** Doorbell value (advertised outstanding items). */
    std::uint64_t pendingItems(QueueId qid) const;

    /** Sum of doorbell values across every registered queue. */
    std::uint64_t totalPending() const;

    /** Total successful qwait() returns. */
    std::uint64_t grants() const;

    /** Condition-variable notifies issued (targeted wakeups). */
    std::uint64_t wakeups() const;

    /** Wakes that found no grantable queue (woken in vain). */
    std::uint64_t spuriousWakes() const;

    /** qwait() calls that returned std::nullopt on timeout. */
    std::uint64_t qwaitTimeouts() const;

    /**
     * Register the device counters (grants, wakeups, spurious_wakes,
     * qwait_timeouts) under @p prefix ("server.dev").
     */
    void registerStats(stats::Registry &reg,
                       const std::string &prefix) const;

  private:
    /**
     * Wake one waiter if @p qid just transitioned to grantable.
     * @pre m_ held.  @return true if a notify was issued.
     */
    bool notifyIfNewlyGrantable(QueueId qid, bool wasGrantable);

    /**
     * Notify one parked waiter that no earlier notify has claimed.
     * @pre m_ held.  @return true if a notify was issued.
     */
    bool notifyOne();

    /** @pre m_ held. */
    bool grantable(QueueId qid) const
    {
        return ready_.isReady(qid) && ready_.isEnabled(qid);
    }

    mutable std::mutex m_;
    std::condition_variable cv_;
    core::ReadySet ready_;
    std::vector<std::uint64_t> doorbells_;
    std::vector<bool> registered_;
    unsigned numRegistered_ = 0;
    bool closed_ = false;
    unsigned waiters_ = 0;
    /** Notifies issued whose waiter has not yet re-taken m_ (<= waiters_). */
    unsigned wakesInFlight_ = 0;
    std::uint64_t grants_ = 0;
    std::uint64_t wakeups_ = 0;
    std::uint64_t spuriousWakes_ = 0;
    std::uint64_t qwaitTimeouts_ = 0;
};

} // namespace emu
} // namespace hyperplane

#endif // HYPERPLANE_EMU_EMU_HYPERPLANE_HH
