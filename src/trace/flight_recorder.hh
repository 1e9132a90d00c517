/**
 * @file
 * The one trace ring: per-shard lock-free rings of packed TraceEvents.
 *
 * Both front ends stamp it.  The simulator builds one shard that
 * records every event (SdpConfig::trace.enable); the UDP server builds
 * one shard per stamping thread (RX lane, worker, watchdog) and traces
 * 1-in-N requests.  Sampling is deterministic on the request sequence
 * number (seq & (period - 1) == 0, the period rounded down to a power
 * of two), so a sampled request receives *all* of its stage stamps and
 * exports as a complete span chain, while a large period keeps the
 * stamp rate low.
 *
 * Each shard is the single writer of its own ring; stamp() is a
 * handful of relaxed atomic stores guarded by a per-slot seqlock.
 * Overflow overwrites the oldest slot, so a long run keeps its tail
 * (dropped() counts the casualties).  snapshot() may run from any
 * thread at any time — including from a signal-triggered dump while
 * the server is under load — and simply discards slots it catches
 * mid-write.
 */

#ifndef HYPERPLANE_TRACE_FLIGHT_RECORDER_HH
#define HYPERPLANE_TRACE_FLIGHT_RECORDER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "trace/trace.hh"

namespace hyperplane {
namespace trace {

class FlightRecorder
{
  public:
    /**
     * @param shards      number of single-writer rings
     * @param capacity    events per ring (0 counts as 1)
     * @param sampleEvery sampling period, rounded down to a power of
     *                    two; 0 disables stamping entirely
     */
    FlightRecorder(unsigned shards, std::size_t capacity,
                   std::uint64_t sampleEvery);

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    bool enabled() const { return every_ != 0; }
    /** The sampling period in force (a power of two, or 0). */
    std::uint64_t sampleEvery() const { return every_; }
    unsigned numShards() const
    {
        return static_cast<unsigned>(shards_.size());
    }
    std::size_t capacity() const { return cap_; }

    /** True when request @p seq should be traced end to end. */
    bool sampled(std::uint64_t seq) const
    {
        return every_ != 0 && (seq & (every_ - 1)) == 0;
    }

    /** Stamp an event from shard @p shard's owning thread. */
    void stamp(unsigned shard, Stage stage, Phase phase,
               std::uint32_t track, Tick ts,
               QueueId qid = invalidQueueId, std::uint64_t arg = 0);

    /** Total events ever stamped (all shards). */
    std::uint64_t recorded() const;

    /** Events overwritten by ring wrap (all shards). */
    std::uint64_t dropped() const;

    /**
     * Merged copy of every ring, stable-sorted by timestamp.  Slots
     * caught mid-write are dropped (at most one per shard per call).
     */
    std::vector<TraceEvent> snapshot() const;

  private:
    struct Slot
    {
        // Seqlock: odd while the writer is inside, bumped to the next
        // even value when the slot is stable.
        std::atomic<std::uint64_t> seq{0};
        std::atomic<std::uint64_t> ts{0};
        std::atomic<std::uint64_t> arg{0};
        std::atomic<std::uint64_t> qidTrack{0}; ///< qid<<32 | track
        std::atomic<std::uint64_t> stagePhase{0};
    };

    struct alignas(64) Shard
    {
        std::unique_ptr<Slot[]> slots;
        std::atomic<std::uint64_t> next{0}; ///< monotonic write index
    };

    std::uint64_t every_;
    std::size_t cap_;
    std::deque<Shard> shards_;
};

} // namespace trace
} // namespace hyperplane

#endif // HYPERPLANE_TRACE_FLIGHT_RECORDER_HH
