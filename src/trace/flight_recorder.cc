#include "trace/flight_recorder.hh"

#include <algorithm>
#include <bit>

namespace hyperplane {
namespace trace {

FlightRecorder::FlightRecorder(unsigned shards, std::size_t capacity,
                               std::uint64_t sampleEvery)
    : every_(std::bit_floor(sampleEvery)),
      cap_(std::max<std::size_t>(1, capacity))
{
    for (unsigned i = 0; i < std::max(1u, shards); ++i) {
        shards_.emplace_back();
        shards_.back().slots = std::make_unique<Slot[]>(cap_);
    }
}

void
FlightRecorder::stamp(unsigned shard, Stage stage, Phase phase,
                      std::uint32_t track, Tick ts,
                      QueueId qid, std::uint64_t arg)
{
    if (every_ == 0)
        return;
    Shard &sh = shards_[shard];
    const std::uint64_t idx = sh.next.load(std::memory_order_relaxed);
    Slot &s = sh.slots[idx % cap_];

    // Single writer per shard: open the seqlock (odd), fill, close
    // (even).  The release on close publishes the payload to readers
    // that observe the even value with an acquire load.
    const std::uint64_t open =
        s.seq.load(std::memory_order_relaxed) + 1;
    s.seq.store(open, std::memory_order_release);
    s.ts.store(ts, std::memory_order_relaxed);
    s.arg.store(arg, std::memory_order_relaxed);
    s.qidTrack.store((static_cast<std::uint64_t>(qid) << 32) | track,
                     std::memory_order_relaxed);
    s.stagePhase.store((static_cast<std::uint64_t>(stage) << 8) |
                           static_cast<std::uint64_t>(phase),
                       std::memory_order_relaxed);
    s.seq.store(open + 1, std::memory_order_release);
    sh.next.store(idx + 1, std::memory_order_release);
}

std::uint64_t
FlightRecorder::recorded() const
{
    std::uint64_t sum = 0;
    for (const auto &sh : shards_)
        sum += sh.next.load(std::memory_order_relaxed);
    return sum;
}

std::uint64_t
FlightRecorder::dropped() const
{
    std::uint64_t sum = 0;
    for (const auto &sh : shards_) {
        const std::uint64_t n = sh.next.load(std::memory_order_relaxed);
        sum += n > cap_ ? n - cap_ : 0;
    }
    return sum;
}

std::vector<TraceEvent>
FlightRecorder::snapshot() const
{
    std::vector<TraceEvent> out;
    for (const auto &sh : shards_) {
        const std::uint64_t next =
            sh.next.load(std::memory_order_acquire);
        const std::uint64_t first = next > cap_ ? next - cap_ : 0;
        for (std::uint64_t i = first; i < next; ++i) {
            const Slot &s = sh.slots[i % cap_];
            const std::uint64_t seq1 =
                s.seq.load(std::memory_order_acquire);
            if (seq1 & 1)
                continue; // writer inside
            TraceEvent e;
            e.ts = s.ts.load(std::memory_order_relaxed);
            e.arg = s.arg.load(std::memory_order_relaxed);
            const std::uint64_t qt =
                s.qidTrack.load(std::memory_order_relaxed);
            e.qid = static_cast<QueueId>(qt >> 32);
            e.track = static_cast<std::uint32_t>(qt);
            const std::uint64_t sp =
                s.stagePhase.load(std::memory_order_relaxed);
            e.stage = static_cast<Stage>(sp >> 8);
            e.phase = static_cast<Phase>(sp & 0xFF);
            std::atomic_thread_fence(std::memory_order_acquire);
            if (s.seq.load(std::memory_order_relaxed) != seq1)
                continue; // torn: writer lapped us mid-copy
            out.push_back(e);
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.ts < b.ts;
                     });
    return out;
}

} // namespace trace
} // namespace hyperplane
