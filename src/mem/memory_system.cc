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
    // invalidateAll() is "invalidate all but the device", and the
    // device-write path excludes deviceWriter from sharer queries; both
    // are correct only because the pseudo id can never name a real core.
    hp_assert(deviceWriter >= numCores,
              "deviceWriter pseudo id collides with a real core id");
    l1s_.reserve(numCores);
    for (unsigned i = 0; i < numCores; ++i)
        l1s_.emplace_back(l1Geom);
    // Directory occupancy is bounded by total L1 capacity (every
    // tracked entry has at least one sharer, and a sharer occupies an
    // L1 way); reserve for that once so the hot path never rehashes.
    dir_.reserve(numCores * l1s_.front().capacityLines());
}

const CacheArray &
MemorySystem::l1(CoreId core) const
{
    hp_assert(core < l1s_.size(), "core id out of range");
    return l1s_[core];
}

void
MemorySystem::dirTrack(Addr line, CoreId core, LineState st)
{
    const bool exclusive =
        st == LineState::Modified || st == LineState::Exclusive;
    dir_.trackSharer(dir_.findOrInsert(line), core, exclusive);
}

void
MemorySystem::dirUntrack(Addr line, CoreId core)
{
    const std::size_t s = dir_.find(line);
    if (s == DirectoryIndex::npos)
        return;
    dir_.untrackSharer(s, core);
}

int
MemorySystem::findOwner(Addr line, CoreId except) const
{
    dirLookups.inc();
    const std::size_t s = dir_.find(line);
    if (s == DirectoryIndex::npos)
        return -1;
    dirHits.inc();
    const int owner = dir_.ownerOf(s);
    if (owner < 0 || static_cast<CoreId>(owner) == except)
        return -1;
    return owner;
}

bool
MemorySystem::anyOtherSharer(Addr line, CoreId except) const
{
    dirLookups.inc();
    const std::size_t s = dir_.find(line);
    if (s == DirectoryIndex::npos)
        return false;
    dirHits.inc();
    return dir_.anyOtherSharer(s, except);
}

unsigned
MemorySystem::invalidateOthers(Addr line, CoreId except)
{
    dirLookups.inc();
    const std::size_t s = dir_.find(line);
    if (s == DirectoryIndex::npos)
        return 0;
    dirHits.inc();
    const unsigned n =
        dir_.removeOthers(s, except, [this, line](CoreId c) {
            const LineState prior = l1s_[c].invalidate(line);
            hp_assert(prior != LineState::Invalid,
                      "directory listed a non-resident sharer");
        });
    if (n > 0)
        invalidations.inc(n);
    return n;
}

unsigned
MemorySystem::invalidateAll(Addr line)
{
    // deviceWriter can never name a real core (asserted at
    // construction), so "all but the device" is exactly "all".
    return invalidateOthers(line, deviceWriter);
}

void
MemorySystem::insertLlc(Addr line)
{
    if (auto victim = llc_.insert(line, LineState::Shared)) {
        // Inclusive LLC: evicting a line removes it from all L1s too.
        invalidateAll(victim->first);
    }
}

void
MemorySystem::insertL1(CoreId core, Addr line, LineState st)
{
    if (auto victim = l1s_[core].insert(line, st)) {
        // A dirty victim is written back into the LLC; the LLC already
        // holds the tag (inclusive), so no further action is modelled.
        // The victim's directory slot is a cold random probe, while the
        // inserted line's slot is warm from the owner/sharer queries
        // that preceded the fill — so start the victim fetch, do the
        // warm track, then untrack (the two lines are independent, so
        // the order is immaterial to the directory's final state).
        dir_.prefetch(victim->first);
        dirTrack(line, core, st);
        dirUntrack(victim->first, core);
        return;
    }
    dirTrack(line, core, st);
}

void
MemorySystem::setL1State(CoreId core, Addr line, LineState st)
{
    CacheArray::WayRef way = l1s_[core].lookup(line);
    hp_assert(static_cast<bool>(way), "setL1State on non-resident line");
    way.setState(st);
    dirTrack(line, core, st);
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

    // Another core owns the line exclusively: cache-to-cache forward,
    // owner downgrades to Shared.
    const int owner = findOwner(line, core);
    if (owner >= 0) {
        setL1State(owner, line, LineState::Shared);
        insertLlc(line); // forwarded data also lands in the LLC
        insertL1(core, line, LineState::Shared);
        remoteForwards.inc();
        return {lat_.remoteL1Forward, AccessLevel::RemoteL1, true};
    }

    if (CacheArray::WayRef llcWay = llc_.lookup(line)) {
        llcWay.touch();
        llc_.hits.inc();
        llcHits.inc();
        const bool shared = anyOtherSharer(line, core);
        insertL1(core, line,
                 shared ? LineState::Shared : LineState::Exclusive);
        return {lat_.llcHit, AccessLevel::LLC, false};
    }
    llc_.misses.inc();

    memAccesses.inc();
    insertLlc(line);
    insertL1(core, line, LineState::Exclusive);
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
        // Upgrade: invalidate other sharers via the directory.
        invalidateOthers(line, core);
        way.setState(LineState::Modified);
        way.touch();
        dirTrack(line, core, LineState::Modified);
        return {lat_.llcHit, AccessLevel::LLC, true};
    }

    l1c.misses.inc();
    const int owner = findOwner(line, core);
    if (owner >= 0) {
        l1s_[owner].invalidate(line);
        dirUntrack(line, owner);
        invalidations.inc();
        insertLlc(line);
        insertL1(core, line, LineState::Modified);
        remoteForwards.inc();
        return {lat_.remoteL1Forward, AccessLevel::RemoteL1, true};
    }

    if (CacheArray::WayRef llcWay = llc_.lookup(line)) {
        llcWay.touch();
        llc_.hits.inc();
        llcHits.inc();
        const bool hadSharers = invalidateOthers(line, core) > 0;
        insertL1(core, line, LineState::Modified);
        return {lat_.llcHit, AccessLevel::LLC, hadSharers};
    }
    llc_.misses.inc();

    memAccesses.inc();
    insertLlc(line);
    insertL1(core, line, LineState::Modified);
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
    invalidateAll(line);
    insertLlc(line);
    llc_.touch(line);
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
    dir_.clear();
}

void
MemorySystem::checkDirectoryConsistency() const
{
    // Cross-check every tracked directory entry against the tag
    // arrays...
    std::uint64_t entries = 0;
    dir_.forEach([this, &entries](Addr line, const DirEntry &e) {
        ++entries;
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
    hp_assert(entries == dir_.size(),
              "live-entry count diverges: %llu tracked, size() says %llu",
              static_cast<unsigned long long>(entries),
              static_cast<unsigned long long>(dir_.size()));
    // ...and make sure no resident L1 line is missing from the
    // directory: per-core resident counts must sum to the directory's
    // total sharer population.
    std::uint64_t resident = 0;
    for (const auto &l1c : l1s_)
        resident += l1c.residentLines();
    std::uint64_t tracked = 0;
    dir_.forEach([&tracked](Addr, const DirEntry &e) {
        for (const std::uint64_t w : e.mask)
            tracked += static_cast<std::uint64_t>(std::popcount(w));
    });
    hp_assert(tracked == resident,
              "directory tracks %llu sharers, L1s hold %llu lines",
              static_cast<unsigned long long>(tracked),
              static_cast<unsigned long long>(resident));
}

} // namespace mem
} // namespace hyperplane
