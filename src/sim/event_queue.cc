#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hh"

namespace hyperplane {

EventQueue::EventQueue()
    : buckets_(horizonTicks), bucketBits_(horizonTicks / 64, 0)
{
}

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead_ != noFreeSlot) {
        const std::uint32_t slot = freeHead_;
        freeHead_ = slots_[slot].nextFree;
        return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.cb.reset();
    s.seq = 0;
    // Generation 0 is reserved so no EventId ever equals invalidEventId.
    if (++s.gen == 0)
        s.gen = 1;
    s.nextFree = freeHead_;
    freeHead_ = slot;
    --liveCount_;
}

void
EventQueue::setBucketBit(std::size_t b)
{
    bucketBits_[b >> 6] |= std::uint64_t{1} << (b & 63);
}

void
EventQueue::clearBucketBit(std::size_t b)
{
    bucketBits_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
}

void
EventQueue::bucketPush(const Ref &r)
{
    Bucket &bk = buckets_[r.when & (horizonTicks - 1)];
    bk.refs.push_back(r);
    if (bk.refs.size() - bk.drain == 1)
        setBucketBit(r.when & (horizonTicks - 1));
    ++bucketRefs_;
    if (r.when < bucketHint_)
        bucketHint_ = r.when;
}

EventId
EventQueue::schedule(Tick when, Callback cb)
{
    hp_assert(when >= now_, "scheduling into the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    const std::uint32_t slot = allocSlot();
    Slot &s = slots_[slot];
    s.cb = std::move(cb);
    s.seq = ++nextSeq_;
    s.bucketed = when - now_ < horizonTicks;
    const Ref r{when, s.seq, slot};
    if (s.bucketed) {
        bucketPush(r);
    } else {
        heap_.push_back(r);
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
    ++liveCount_;
    return (static_cast<EventId>(slot) << 32) | s.gen;
}

bool
EventQueue::cancel(EventId id)
{
    const auto slot = static_cast<std::uint32_t>(id >> 32);
    const auto gen = static_cast<std::uint32_t>(id);
    if (slot >= slots_.size())
        return false;
    Slot &s = slots_[slot];
    if (s.gen != gen || s.seq == 0)
        return false;
    // The (when, seq, slot) entry stays behind as a tombstone; the
    // callback (and its captured resources) die right now, and the
    // slot is immediately reusable thanks to the generation bump.
    if (s.bucketed)
        ++bucketStale_;
    else
        ++heapStale_;
    freeSlot(slot);
    maybePurge();
    return true;
}

void
EventQueue::skipStaleHeap()
{
    while (!heap_.empty() && !refLive(heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
        --heapStale_;
    }
}

bool
EventQueue::bucketFront(Tick &tick)
{
    if (bucketRefs_ == 0) {
        bucketHint_ = ~Tick{0};
        return false;
    }
    // Every bucketed event has when in [now_, now_ + horizon), so one
    // non-wrapping pass over that window visits each bucket once.  The
    // hint is a lower bound on the earliest live bucketed tick, making
    // the common case (front unchanged since last call) a single probe.
    Tick t = bucketHint_ < now_ ? now_ : bucketHint_;
    const Tick windowEnd = now_ + horizonTicks;
    while (t < windowEnd) {
        const std::size_t bit = t & (horizonTicks - 1);
        const std::uint64_t word = bucketBits_[bit >> 6] >> (bit & 63);
        if (word == 0) {
            t += 64 - (bit & 63);
            continue;
        }
        t += static_cast<Tick>(std::countr_zero(word));
        if (t >= windowEnd)
            break;
        Bucket &bk = buckets_[t & (horizonTicks - 1)];
        while (bk.drain < bk.refs.size() && !refLive(bk.refs[bk.drain])) {
            ++bk.drain;
            --bucketRefs_;
            --bucketStale_;
        }
        if (bk.drain == bk.refs.size()) {
            bk.refs.clear();
            bk.drain = 0;
            clearBucketBit(t & (horizonTicks - 1));
            if (bucketRefs_ == 0)
                break;
            ++t;
            continue;
        }
        hp_assert(bk.refs[bk.drain].when == t,
                  "calendar bucket tick mismatch");
        bucketHint_ = t;
        tick = t;
        return true;
    }
    bucketHint_ = ~Tick{0};
    return false;
}

bool
EventQueue::peekNextTick(Tick &tick)
{
    Tick bt;
    const bool haveBucket = bucketFront(bt);
    skipStaleHeap();
    const bool haveHeap = !heap_.empty();
    if (!haveBucket && !haveHeap)
        return false;
    if (haveBucket && haveHeap)
        tick = std::min(bt, heap_.front().when);
    else
        tick = haveBucket ? bt : heap_.front().when;
    return true;
}

void
EventQueue::maybePurge()
{
    const std::size_t stale = heapStale_ + bucketStale_;
    if (stale < 1024 || stale * 2 <= heap_.size() + bucketRefs_)
        return;
    std::erase_if(heap_, [this](const Ref &r) { return !refLive(r); });
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    heapStale_ = 0;
    if (bucketStale_ == 0)
        return;
    bucketRefs_ = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        Bucket &bk = buckets_[b];
        if (bk.refs.empty())
            continue;
        std::size_t out = 0;
        for (std::size_t i = bk.drain; i < bk.refs.size(); ++i)
            if (refLive(bk.refs[i]))
                bk.refs[out++] = bk.refs[i];
        bk.refs.resize(out);
        bk.drain = 0;
        if (out == 0)
            clearBucketBit(b);
        else
            bucketRefs_ += out;
    }
    bucketStale_ = 0;
}

Tick
EventQueue::nextEventTick() const
{
    auto *self = const_cast<EventQueue *>(this);
    Tick t;
    const bool any = self->peekNextTick(t);
    hp_assert(any, "nextEventTick on empty queue");
    return t;
}

bool
EventQueue::peekNextRef(Ref &r, bool &fromBucket)
{
    Tick bt;
    const bool haveBucket = bucketFront(bt);
    skipStaleHeap();
    const bool haveHeap = !heap_.empty();
    if (!haveBucket && !haveHeap)
        return false;

    // Same-tick events must fire in schedule order even when they sit
    // in different front ends (one scheduled from afar, one nearby):
    // merge the two fronts by sequence number.
    if (haveBucket && haveHeap) {
        const Ref &h = heap_.front();
        const Bucket &bk = buckets_[bt & (horizonTicks - 1)];
        const Ref &b = bk.refs[bk.drain];
        fromBucket =
            b.when < h.when || (b.when == h.when && b.seq < h.seq);
        r = fromBucket ? b : h;
    } else {
        fromBucket = haveBucket;
        if (haveBucket) {
            const Bucket &bk = buckets_[bt & (horizonTicks - 1)];
            r = bk.refs[bk.drain];
        } else {
            r = heap_.front();
        }
    }
    return true;
}

void
EventQueue::popAndFire(const Ref &r, bool fromBucket)
{
    if (fromBucket) {
        Bucket &bk = buckets_[r.when & (horizonTicks - 1)];
        ++bk.drain;
        --bucketRefs_;
        if (bk.drain == bk.refs.size()) {
            bk.refs.clear();
            bk.drain = 0;
            clearBucketBit(r.when & (horizonTicks - 1));
        }
    } else {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
    }

    hp_assert(r.when >= now_, "event in the past");
    now_ = r.when;
    Callback cb = std::move(slots_[r.slot].cb);
    freeSlot(r.slot);
    ++dispatched_;
    cb();
}

bool
EventQueue::step()
{
    Ref r;
    bool fromBucket;
    if (!peekNextRef(r, fromBucket))
        return false;
    popAndFire(r, fromBucket);
    return true;
}

std::uint64_t
EventQueue::run(Tick until)
{
    std::uint64_t n = 0;
    Ref r;
    bool fromBucket;
    while (peekNextRef(r, fromBucket) && r.when <= until) {
        popAndFire(r, fromBucket);
        ++n;
    }
    if (now_ < until && until != ~Tick{0})
        now_ = until;
    return n;
}

void
EventQueue::advanceTo(Tick t)
{
    hp_assert(t >= now_, "advanceTo into the past");
    Tick next;
    const bool any = peekNextTick(next);
    hp_assert(!any || next >= t, "advanceTo would skip a pending event");
    now_ = t;
}

} // namespace hyperplane
