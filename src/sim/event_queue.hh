/**
 * @file
 * A discrete-event simulation kernel.
 *
 * Events scheduled for the same tick fire in scheduling order, which
 * keeps multi-component interactions deterministic.  Events may be
 * cancelled via the EventId returned by schedule().
 *
 * Internals (see docs/PERFORMANCE.md for the full design):
 *
 *  - Callbacks live in a slot array of small-buffer-optimized
 *    EventCallback objects; the schedule fast path performs no heap
 *    allocation for any capture the component layers produce.
 *  - EventIds are generation-tagged slot handles, so cancel() is an
 *    O(1) array probe instead of a hash-set lookup, and a cancelled
 *    event's callback (and captured resources) are destroyed
 *    immediately.
 *  - Dispatch order is (tick, schedule sequence): a near-horizon
 *    calendar of per-tick buckets absorbs the dominant short-delta
 *    schedules in O(1); a binary heap holds far-future events.  The two
 *    front ends are merged by sequence number at dispatch, preserving
 *    the same-tick FIFO contract exactly.
 *  - Cancelled entries left behind in the calendar/heap are purged once
 *    they outnumber live ones, so schedule+cancel churn cannot grow
 *    kernel memory without bound.
 */

#ifndef HYPERPLANE_SIM_EVENT_QUEUE_HH
#define HYPERPLANE_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "sim/callback.hh"
#include "sim/types.hh"

namespace hyperplane {

/** Handle identifying a scheduled event, usable for cancellation. */
using EventId = std::uint64_t;

/** Sentinel for "no event". */
constexpr EventId invalidEventId = 0;

/**
 * Discrete-event queue driving a single simulation.
 *
 * The typical loop is:
 * @code
 *   EventQueue eq;
 *   eq.schedule(100, [&]{ ... });
 *   eq.run(usToTicks(1000));
 * @endcode
 */
class EventQueue
{
  public:
    using Callback = EventCallback;

    /**
     * Width of the near-horizon calendar: a schedule whose delta from
     * now() is below this lands in an O(1) per-tick bucket; farther
     * events go to the binary heap.  Covers QWAIT (50), memory (200)
     * and the several-thousand-cycle service times that dominate the
     * event mix; only Poisson inter-arrival gaps at light load overflow
     * to the heap.
     */
    static constexpr Tick horizonTicks = 8192;

    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time.  Monotonically non-decreasing. */
    Tick now() const { return now_; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute tick; must be >= now().
     * @param cb   Callback to invoke.
     * @return Handle that can be passed to cancel().
     */
    EventId schedule(Tick when, Callback cb);

    /** Schedule a callback @p delta ticks from now. */
    EventId scheduleIn(Tick delta, Callback cb)
    {
        return schedule(now_ + delta, std::move(cb));
    }

    /**
     * Cancel a previously scheduled event.
     *
     * @return true if the event was pending and is now cancelled; false if
     *         it already fired or was already cancelled.
     */
    bool cancel(EventId id);

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return liveCount_; }

    /** True if no events remain. */
    bool empty() const { return pending() == 0; }

    /** Tick of the next pending event. @pre !empty() */
    Tick nextEventTick() const;

    /**
     * Run until the queue is empty or simulated time would exceed
     * @p until.  Events scheduled exactly at @p until still fire.
     *
     * @return Number of events dispatched.
     */
    std::uint64_t run(Tick until = ~Tick{0});

    /**
     * Dispatch exactly one event, if any.
     * @return true if an event fired.
     */
    bool step();

    /**
     * Advance now() to @p t without running events.  Used by bulk
     * fast-forward paths; @p t must not skip over any pending event.
     */
    void advanceTo(Tick t);

    /** Total events dispatched since construction. */
    std::uint64_t dispatched() const { return dispatched_; }

    // --- introspection (tests, perf harness) --------------------------

    /**
     * Entries currently held by the calendar + heap, including
     * not-yet-purged cancelled tombstones.  The bounded-memory
     * regression test asserts this tracks pending(), not the number of
     * cancellations ever issued.
     */
    std::size_t debugScheduledEntries() const
    {
        return heap_.size() + bucketRefs_;
    }

    /** Size of the slot array (high-water mark of concurrent events). */
    std::size_t debugSlotCapacity() const { return slots_.size(); }

  private:
    /** Callback + identity of one scheduled event. */
    struct Slot
    {
        Callback cb;
        /** Schedule sequence number; 0 = slot is free. */
        std::uint64_t seq = 0;
        /** Generation tag carried in the public EventId. */
        std::uint32_t gen = 1;
        /** Free-list link (valid while free). */
        std::uint32_t nextFree = 0;
        /** Whether the event's entry sits in a bucket (vs the heap). */
        bool bucketed = false;
    };

    /** (when, seq) key + owning slot of one calendar/heap entry. */
    struct Ref
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Max-heap comparator for "fires later" (min element at front). */
    struct Later
    {
        bool
        operator()(const Ref &a, const Ref &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** One near-horizon tick's events, appended in schedule order. */
    struct Bucket
    {
        std::vector<Ref> refs;
        /** Index of the next unconsumed entry. */
        std::uint32_t drain = 0;
    };

    static constexpr std::uint32_t noFreeSlot = ~std::uint32_t{0};

    /** True if @p r still refers to a live (uncancelled) event. */
    bool
    refLive(const Ref &r) const
    {
        return slots_[r.slot].seq == r.seq;
    }

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);

    void bucketPush(const Ref &r);
    void setBucketBit(std::size_t b);
    void clearBucketBit(std::size_t b);

    /** Drop stale heap entries off the top. */
    void skipStaleHeap();

    /**
     * Earliest bucketed event, skipping (and reclaiming) stale
     * entries.  @return false if no live bucketed event exists.
     * On success @p tick is its tick; the bucket's drain points at it.
     */
    bool bucketFront(Tick &tick);

    /** Earliest pending tick across both front ends. */
    bool peekNextTick(Tick &tick);

    /**
     * The ref run()/step() would dispatch next, merging both front
     * ends by (when, seq).  Reclaims stale front entries; the winning
     * entry itself is left in place.
     */
    bool peekNextRef(Ref &r, bool &fromBucket);

    /** Remove @p r (the current front, as reported by peekNextRef)
     *  from its front end, advance now(), and fire its callback. */
    void popAndFire(const Ref &r, bool fromBucket);

    /** Reclaim cancelled tombstones once they outnumber live entries. */
    void maybePurge();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::size_t liveCount_ = 0;

    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = noFreeSlot;

    /** Far-future events, managed with std::push_heap/pop_heap. */
    std::vector<Ref> heap_;
    std::size_t heapStale_ = 0;

    /** Calendar: bucket b holds events with when % horizonTicks == b. */
    std::vector<Bucket> buckets_;
    /** One bit per bucket: set iff the bucket has unconsumed entries. */
    std::vector<std::uint64_t> bucketBits_;
    /** Unconsumed calendar entries (live + stale). */
    std::size_t bucketRefs_ = 0;
    std::size_t bucketStale_ = 0;
    /** Lower bound on the earliest bucketed tick (scan hint). */
    Tick bucketHint_ = ~Tick{0};
};

} // namespace hyperplane

#endif // HYPERPLANE_SIM_EVENT_QUEUE_HH
