/**
 * @file
 * Always-on sampled flight recorder.
 *
 * Per-shard lock-free rings of packed trace events, cheap enough to
 * leave on in production: sampling is a deterministic modulus on the
 * request sequence number (seq % sampleEvery == 0), so a sampled
 * request receives *all* of its stage stamps and exports as a complete
 * span chain, while 1-in-N sampling keeps the stamp rate low.
 *
 * Each shard (RX thread, worker, watchdog) is the single
 * writer of its own ring; stamp() is a handful of relaxed atomic
 * stores guarded by a per-slot seqlock.  snapshot() may run from any
 * thread at any time — including from a signal-triggered dump while
 * the server is under load — and simply discards slots it catches
 * mid-write.
 */

#ifndef HYPERPLANE_TELEMETRY_FLIGHT_RECORDER_HH
#define HYPERPLANE_TELEMETRY_FLIGHT_RECORDER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "trace/trace.hh"

namespace hyperplane {
namespace telemetry {

class FlightRecorder
{
  public:
    /**
     * @param shards     number of single-writer rings
     * @param capacity   events per ring (rounded up to >= 2)
     * @param sampleEvery trace requests with seq % sampleEvery == 0;
     *                    0 disables stamping entirely
     */
    FlightRecorder(unsigned shards, std::size_t capacity,
                   std::uint64_t sampleEvery);

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    bool enabled() const { return every_ != 0; }
    std::uint64_t sampleEvery() const { return every_; }
    unsigned numShards() const
    {
        return static_cast<unsigned>(shards_.size());
    }
    std::size_t capacity() const { return cap_; }

    /** True when request @p seq should be traced end to end. */
    bool sampled(std::uint64_t seq) const
    {
        // Power-of-two periods (the default) take the AND path — this
        // runs a few times per request on the data path, and a modulus
        // by a runtime divisor is a hardware divide.
        if (every_ == 0)
            return false;
        return pow2_ ? (seq & (every_ - 1)) == 0 : seq % every_ == 0;
    }

    /** Stamp an event from shard @p shard's owning thread. */
    void stamp(unsigned shard, trace::Stage stage, trace::Phase phase,
               std::uint32_t track, Tick ts,
               QueueId qid = invalidQueueId, std::uint64_t arg = 0);

    /** Total events ever stamped (all shards). */
    std::uint64_t recorded() const;

    /**
     * Merged copy of every ring, sorted by timestamp.  Slots caught
     * mid-write are dropped (at most one per shard per call).
     */
    std::vector<trace::TraceEvent> snapshot() const;

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
    bool pow2_; ///< every_ is a power of two: sample with a mask
    std::size_t cap_;
    std::deque<Shard> shards_;
};

} // namespace telemetry
} // namespace hyperplane

#endif // HYPERPLANE_TELEMETRY_FLIGHT_RECORDER_HH
