#include "mem/memory_system.hh"

#include <algorithm>
#include <bit>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace hyperplane {
namespace mem {

MemorySystem::MemorySystem(unsigned numCores, const CacheGeometry &l1Geom,
                           const CacheGeometry &llcGeom,
                           const MemLatencies &lat)
    : lat_(lat), llc_(llcGeom)
{
    hp_assert(numCores > 0, "need at least one core");
    hp_assert(numCores <= maxDirectoryCores,
              "directory sharer mask tracks at most %u cores",
              maxDirectoryCores);
    // Back-invalidation and device writes drop "every sharer but the
    // device"; that is every sharer only because the pseudo id can never
    // name a real core.
    hp_assert(deviceWriter >= numCores,
              "deviceWriter pseudo id collides with a real core id");
    l1s_.reserve(numCores);
    for (unsigned i = 0; i < numCores; ++i)
        l1s_.emplace_back(l1Geom);
}

const CacheArray &
MemorySystem::l1(CoreId core) const
{
    hp_assert(core < l1s_.size(), "core id out of range");
    return l1s_[core];
}

void
MemorySystem::trackSharer(std::uint64_t &p, CoreId core, bool exclusive)
{
    if ((p & kOverflow) == 0) {
        const CoreId id = inlineId(p);
        if ((p & kHasSharer) == 0) {
            p = kHasSharer | (exclusive ? kOwned : 0) |
                (std::uint64_t{core} << kIdShift);
            ++dirLines_;
            return;
        }
        if (id == core) {
            if (exclusive)
                p |= kOwned;
            else
                p &= ~kOwned;
            return;
        }
        // Second sharer: spill to a full mask entry.  An owner would
        // have been downgraded before another core could join, so the
        // spilled entry is ownerless.
        hp_assert(!exclusive && (p & kOwned) == 0,
                  "exclusive track with another sharer present");
        const std::uint32_t idx = allocPool();
        DirEntry &e = pool_[idx];
        e = DirEntry{};
        e.mask[id / 64] |= std::uint64_t{1} << (id % 64);
        e.mask[core / 64] |= std::uint64_t{1} << (core % 64);
        p = kOverflow | (std::uint64_t{idx} << 1);
        return;
    }
    DirEntry &e = pool_[p >> 1];
    hp_assert(!exclusive, "exclusive track with multiple sharers present");
    e.mask[core / 64] |= std::uint64_t{1} << (core % 64);
}

void
MemorySystem::untrackSharer(std::uint64_t &p, CoreId core)
{
    if ((p & kOverflow) == 0) {
        if ((p & kHasSharer) != 0 && inlineId(p) == core) {
            p = 0;
            --dirLines_;
        }
        return;
    }
    const auto idx = static_cast<std::uint32_t>(p >> 1);
    pool_[idx].mask[core / 64] &= ~(std::uint64_t{1} << (core % 64));
    demoteIfSole(p, idx);
}

unsigned
MemorySystem::removeOthers(std::uint64_t &p, Addr line, CoreId except)
{
    const auto invalidate = [this, line](CoreId c) {
        const LineState prior = l1s_[c].invalidate(line);
        hp_assert(prior != LineState::Invalid,
                  "directory listed a non-resident sharer");
    };
    if ((p & kOverflow) == 0) {
        if ((p & kHasSharer) == 0)
            return 0;
        const CoreId id = inlineId(p);
        if (id == except)
            return 0;
        invalidate(id);
        p = 0;
        --dirLines_;
        return 1;
    }
    const auto idx = static_cast<std::uint32_t>(p >> 1);
    DirEntry &e = pool_[idx];
    unsigned n = 0;
    for (unsigned w = 0; w < dirMaskWords; ++w) {
        std::uint64_t bits = e.mask[w];
        while (bits != 0) {
            const auto b = static_cast<unsigned>(std::countr_zero(bits));
            bits &= bits - 1;
            const CoreId c = w * 64 + b;
            if (c == except)
                continue;
            invalidate(c);
            e.mask[w] &= ~(std::uint64_t{1} << b);
            ++n;
        }
    }
    demoteIfSole(p, idx);
    return n;
}

void
MemorySystem::demoteIfSole(std::uint64_t &p, std::uint32_t idx)
{
    const DirEntry &e = pool_[idx];
    const unsigned pop = e.popcount();
    if (pop > 1)
        return;
    std::uint64_t repl = 0;
    if (pop == 1) {
        for (unsigned w = 0; w < dirMaskWords; ++w) {
            if (e.mask[w] != 0) {
                const std::uint64_t sole =
                    w * 64 +
                    static_cast<unsigned>(std::countr_zero(e.mask[w]));
                // Spilled entries are ownerless (see trackSharer); an
                // upgrade re-grants ownership with a fresh track.
                repl = kHasSharer | (sole << kIdShift);
            }
        }
    }
    poolFree_.push_back(idx);
    p = repl;
    if (repl == 0)
        --dirLines_;
}

std::uint32_t
MemorySystem::allocPool()
{
    if (!poolFree_.empty()) {
        const std::uint32_t idx = poolFree_.back();
        poolFree_.pop_back();
        return idx;
    }
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
}

MemorySystem::DirEntry
MemorySystem::materialize(std::uint64_t p) const
{
    if ((p & kOverflow) != 0)
        return pool_[p >> 1];
    DirEntry e;
    if ((p & kHasSharer) != 0) {
        const CoreId id = inlineId(p);
        e.mask[id / 64] |= std::uint64_t{1} << (id % 64);
        if ((p & kOwned) != 0)
            e.owner = static_cast<int>(id);
    }
    return e;
}

int
MemorySystem::findOwner(std::uint64_t p, CoreId except) const
{
    dirLookups.inc();
    if (p == 0)
        return -1;
    dirHits.inc();
    // Spilled (overflow) entries are ownerless.
    if ((p & (kOverflow | kOwned)) != kOwned)
        return -1;
    const CoreId owner = inlineId(p);
    return owner == except ? -1 : static_cast<int>(owner);
}

bool
MemorySystem::anyOtherSharer(std::uint64_t p, CoreId except) const
{
    dirLookups.inc();
    if (p == 0)
        return false;
    dirHits.inc();
    if ((p & kOverflow) == 0)
        return inlineId(p) != except;
    const DirEntry &e = pool_[p >> 1];
    for (unsigned w = 0; w < dirMaskWords; ++w) {
        std::uint64_t bits = e.mask[w];
        if (except / 64 == w)
            bits &= ~(std::uint64_t{1} << (except % 64));
        if (bits != 0)
            return true;
    }
    return false;
}

unsigned
MemorySystem::invalidateOthers(Slot s, Addr line, CoreId except)
{
    dirLookups.inc();
    if (sharersAt(s) == 0)
        return 0;
    dirHits.inc();
    const unsigned n = removeOthers(llc_.aux(s), line, except);
    if (n > 0)
        invalidations.inc(n);
    return n;
}

MemorySystem::Slot
MemorySystem::insertLlc(Addr line)
{
    const CacheArray::Fill fill = llc_.insert(line, LineState::Shared);
    if (fill.victim) {
        // Inclusive LLC: evicting a line removes it from all L1s too.
        // The victim's sharers are still in the slot being refilled;
        // deviceWriter never names a real core, so this drops them all.
        invalidateOthers(fill.slot, fill.victim->first, deviceWriter);
    }
    return fill.slot;
}

void
MemorySystem::insertL1(CoreId core, Addr line, LineState st, Slot llcSlot)
{
    CacheArray &l1c = l1s_[core];
    const CacheArray::Fill fill = l1c.insert(line, st);
    // A dirty victim is written back into the LLC; the LLC already
    // holds the tag (inclusive), so no further action is modelled.
    // Inclusion also keeps the victim's back-pointer valid.
    const auto victimSlot = static_cast<Slot>(l1c.aux(fill.slot));
    l1c.aux(fill.slot) = llcSlot;
    trackSharer(llc_.aux(llcSlot), core,
                st == LineState::Modified || st == LineState::Exclusive);
    if (fill.victim)
        untrackSharer(llc_.aux(victimSlot), core);
}

AccessResult
MemorySystem::read(CoreId core, Addr addr)
{
    hp_assert(core < l1s_.size(), "core id out of range");
    const Addr line = lineBase(addr);
    CacheArray &l1c = l1s_[core];

    if (CacheArray::WayRef way = l1c.lookup(line)) {
        way.touch();
        l1c.hits.inc();
        l1Hits.inc();
        return {lat_.l1Hit, AccessLevel::L1, false};
    }
    l1c.misses.inc();

    // One LLC probe serves the directory queries and the LLC access.
    CacheArray::WayRef llcWay = llc_.lookup(line);
    const Slot s = llcWay.slot();
    const std::uint64_t sharers = sharersAt(s);

    // Another core owns the line exclusively: cache-to-cache forward,
    // owner downgrades to Shared.
    const int owner = findOwner(sharers, core);
    if (owner >= 0) {
        CacheArray::WayRef ownerWay = l1s_[owner].lookup(line);
        hp_assert(static_cast<bool>(ownerWay),
                  "directory owner does not hold the line");
        ownerWay.setState(LineState::Shared);
        trackSharer(llc_.aux(s), owner, false);
        llc_.stampAt(s, LineState::Shared); // forwarded data lands in LLC
        insertL1(core, line, LineState::Shared, s);
        remoteForwards.inc();
        return {lat_.remoteL1Forward, AccessLevel::RemoteL1, true};
    }

    if (llcWay) {
        llcWay.touch();
        llc_.hits.inc();
        llcHits.inc();
        const bool shared = anyOtherSharer(sharers, core);
        insertL1(core, line,
                 shared ? LineState::Shared : LineState::Exclusive, s);
        return {lat_.llcHit, AccessLevel::LLC, false};
    }
    llc_.misses.inc();

    memAccesses.inc();
    insertL1(core, line, LineState::Exclusive, insertLlc(line));
    return {lat_.memAccess, AccessLevel::Memory, false};
}

AccessResult
MemorySystem::write(CoreId core, Addr addr)
{
    hp_assert(core < l1s_.size(), "core id out of range");
    const Addr line = lineBase(addr);
    CacheArray &l1c = l1s_[core];
    CacheArray::WayRef way = l1c.lookup(line);
    const LineState myState = way.state();

    if (myState == LineState::Modified) {
        way.touch();
        l1c.hits.inc();
        l1Hits.inc();
        return {lat_.l1Hit, AccessLevel::L1, false};
    }
    if (myState == LineState::Exclusive) {
        // Silent E->M upgrade; no bus transaction, so no snoop fires.
        // The directory owner already names this core.
        way.setState(LineState::Modified);
        way.touch();
        l1c.hits.inc();
        l1Hits.inc();
        return {lat_.l1Hit, AccessLevel::L1, false};
    }

    // From here on an ownership-granting transaction is required, which
    // the monitoring set observes.
    writeTransactions.inc();
    notifySnoopers(line, core);

    if (myState == LineState::Shared) {
        // Upgrade: invalidate other sharers via the directory, reached
        // through this way's back-pointer.
        const auto s = static_cast<Slot>(l1c.aux(way.slot()));
        invalidateOthers(s, line, core);
        way.setState(LineState::Modified);
        way.touch();
        trackSharer(llc_.aux(s), core, true);
        return {lat_.llcHit, AccessLevel::LLC, true};
    }

    l1c.misses.inc();
    CacheArray::WayRef llcWay = llc_.lookup(line);
    const Slot s = llcWay.slot();
    const int owner = findOwner(sharersAt(s), core);
    if (owner >= 0) {
        l1s_[owner].invalidate(line);
        untrackSharer(llc_.aux(s), owner);
        invalidations.inc();
        llc_.stampAt(s, LineState::Shared); // forwarded data lands in LLC
        insertL1(core, line, LineState::Modified, s);
        remoteForwards.inc();
        return {lat_.remoteL1Forward, AccessLevel::RemoteL1, true};
    }

    if (llcWay) {
        llcWay.touch();
        llc_.hits.inc();
        llcHits.inc();
        const bool hadSharers = invalidateOthers(s, line, core) > 0;
        insertL1(core, line, LineState::Modified, s);
        return {lat_.llcHit, AccessLevel::LLC, hadSharers};
    }
    llc_.misses.inc();

    memAccesses.inc();
    insertL1(core, line, LineState::Modified, insertLlc(line));
    return {lat_.memAccess, AccessLevel::Memory, false};
}

AccessResult
MemorySystem::atomicRmw(CoreId core, Addr addr)
{
    AccessResult r = write(core, addr);
    r.latency += lat_.atomicExtra;
    return r;
}

void
MemorySystem::deviceWrite(Addr addr)
{
    const Addr line = lineBase(addr);
    writeTransactions.inc();
    notifySnoopers(line, deviceWriter);
    // Invalidate every cached copy; DDIO-style allocation into the LLC.
    invalidateOthers(llc_.find(line), line, deviceWriter);
    llc_.touchAt(insertLlc(line));
}

void
MemorySystem::watchRange(Addr lo, Addr hi, Snooper *snooper)
{
    hp_assert(lo < hi, "empty watch range");
    hp_assert(snooper != nullptr, "null snooper");
    watches_.push_back({lo, hi, snooper});
    rebuildWatchIndex();
}

void
MemorySystem::unwatch(Snooper *snooper)
{
    std::erase_if(watches_, [snooper](const WatchedRange &w) {
        return w.snooper == snooper;
    });
    rebuildWatchIndex();
}

void
MemorySystem::rebuildWatchIndex()
{
    sortedWatches_ = watches_;
    std::sort(sortedWatches_.begin(), sortedWatches_.end(),
              [](const WatchedRange &a, const WatchedRange &b) {
                  return a.lo < b.lo;
              });
    watchesOverlap_ = false;
    for (std::size_t i = 1; i < sortedWatches_.size(); ++i) {
        if (sortedWatches_[i].lo < sortedWatches_[i - 1].hi)
            watchesOverlap_ = true;
    }
}

void
MemorySystem::deliverSnoop(const WatchedRange &w, Addr line, CoreId writer)
{
    snoopHits.inc();
    if (tracer_) {
        tracer_->stamp(0, trace::Stage::SnoopDeliver, trace::Phase::Instant,
                       trace::trackDevice, clock_->now(), invalidQueueId,
                       line);
    }
    if (interposer_ && interposer_(line, writer, w.snooper))
        return; // interposer owns delivery (fault injection)
    w.snooper->onWriteTransaction(line, writer);
}

void
MemorySystem::notifySnoopers(Addr line, CoreId writer)
{
    // Nearly all SDP configurations register one doorbell range per
    // qwait unit, all disjoint; dispatch is a one-entry test or a
    // binary search instead of a scan over every registration.
    if (watches_.empty())
        return;
    if (watches_.size() == 1) {
        const WatchedRange &w = watches_.front();
        if (line >= w.lo && line < w.hi)
            deliverSnoop(w, line, writer);
        return;
    }
    if (!watchesOverlap_) {
        // Disjoint ranges: only the one with the greatest lo <= line
        // can contain it.
        auto it = std::upper_bound(
            sortedWatches_.begin(), sortedWatches_.end(), line,
            [](Addr a, const WatchedRange &w) { return a < w.lo; });
        if (it == sortedWatches_.begin())
            return;
        --it;
        if (line < it->hi)
            deliverSnoop(*it, line, writer);
        return;
    }
    // Overlapping registrations: preserve registration-order delivery.
    for (const auto &w : watches_) {
        if (line >= w.lo && line < w.hi)
            deliverSnoop(w, line, writer);
    }
}

void
MemorySystem::flushAll()
{
    for (auto &c : l1s_)
        c.flush();
    llc_.flush();
    pool_.clear();
    poolFree_.clear();
    dirLines_ = 0;
}

void
MemorySystem::checkDirectoryConsistency() const
{
    // Cross-check every LLC line's sharer word against the L1 tag
    // arrays...
    std::uint64_t entries = 0;
    std::uint64_t tracked = 0;
    llc_.forEachResident([&](Slot s, Addr line, LineState) {
        const std::uint64_t p = llc_.aux(s);
        if (p == 0)
            return;
        ++entries;
        const DirEntry e = materialize(p);
        tracked += e.popcount();
        int owner = -1;
        for (unsigned c = 0; c < l1s_.size(); ++c) {
            const LineState st = l1s_[c].state(line);
            const bool bit =
                (e.mask[c / 64] >> (c % 64)) & std::uint64_t{1};
            hp_assert(bit == (st != LineState::Invalid),
                      "directory sharer bit diverges from L1 %u", c);
            if (st == LineState::Modified || st == LineState::Exclusive) {
                hp_assert(owner < 0, "two M/E holders for one line");
                owner = static_cast<int>(c);
            }
        }
        hp_assert(e.owner == owner, "directory owner diverges");
    });
    hp_assert(entries == dirLines_,
              "live-entry count diverges: %llu tracked, directoryLines() "
              "says %llu",
              static_cast<unsigned long long>(entries),
              static_cast<unsigned long long>(dirLines_));
    // ...make sure no resident L1 line is missing from the directory:
    // per-core resident counts must sum to the total sharer
    // population...
    std::uint64_t resident = 0;
    for (const auto &l1c : l1s_)
        resident += l1c.residentLines();
    hp_assert(tracked == resident,
              "directory tracks %llu sharers, L1s hold %llu lines",
              static_cast<unsigned long long>(tracked),
              static_cast<unsigned long long>(resident));
    // ...and that every L1 way's back-pointer names its line's LLC way.
    for (unsigned c = 0; c < l1s_.size(); ++c) {
        l1s_[c].forEachResident([&](Slot s, Addr line, LineState) {
            hp_assert(l1s_[c].aux(s) == llc_.find(line),
                      "L1 %u back-pointer diverges from the LLC", c);
        });
    }
}

} // namespace mem
} // namespace hyperplane
