/**
 * @file
 * Unit tests for the MESI directory memory-system model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "mem/memory_system.hh"

namespace hyperplane {
namespace mem {
namespace {

MemorySystem
makeSystem(unsigned cores = 4)
{
    return MemorySystem(cores, CacheGeometry{32 * 1024, 4, 64},
                        CacheGeometry{1024 * 1024, 16, 64});
}

TEST(MemorySystem, ColdReadMissesToMemory)
{
    auto m = makeSystem();
    const auto r = m.read(0, 0x10000);
    EXPECT_EQ(r.servedBy, AccessLevel::Memory);
    EXPECT_EQ(r.latency, m.latencies().memAccess);
}

TEST(MemorySystem, SecondReadHitsL1)
{
    auto m = makeSystem();
    m.read(0, 0x10000);
    const auto r = m.read(0, 0x10000);
    EXPECT_EQ(r.servedBy, AccessLevel::L1);
    EXPECT_EQ(r.latency, m.latencies().l1Hit);
}

TEST(MemorySystem, OtherCoreReadHitsLlcAndShares)
{
    auto m = makeSystem();
    m.read(0, 0x10000); // core 0 E
    m.read(0, 0x10000);
    const auto r = m.read(1, 0x10000);
    // Core 0 held E: serviced by cache-to-cache forward.
    EXPECT_EQ(r.servedBy, AccessLevel::RemoteL1);
    EXPECT_EQ(m.l1(0).state(0x10000), LineState::Shared);
    EXPECT_EQ(m.l1(1).state(0x10000), LineState::Shared);
}

TEST(MemorySystem, ReadAfterSharersHitsLlc)
{
    auto m = makeSystem();
    m.read(0, 0x10000);
    m.read(1, 0x10000); // both Shared, line in LLC
    const auto r = m.read(2, 0x10000);
    EXPECT_EQ(r.servedBy, AccessLevel::LLC);
    EXPECT_EQ(m.l1(2).state(0x10000), LineState::Shared);
}

TEST(MemorySystem, WriteObtainsModified)
{
    auto m = makeSystem();
    m.write(0, 0x10000);
    EXPECT_EQ(m.l1(0).state(0x10000), LineState::Modified);
}

TEST(MemorySystem, SilentExclusiveToModifiedUpgrade)
{
    auto m = makeSystem();
    m.read(0, 0x10000); // E
    const std::uint64_t getmBefore = m.writeTransactions.value();
    const auto r = m.write(0, 0x10000);
    EXPECT_EQ(r.servedBy, AccessLevel::L1);
    EXPECT_EQ(m.l1(0).state(0x10000), LineState::Modified);
    // E->M is silent: no bus transaction (nothing to snoop).
    EXPECT_EQ(m.writeTransactions.value(), getmBefore);
}

TEST(MemorySystem, WriteInvalidatesSharers)
{
    auto m = makeSystem();
    m.read(0, 0x10000);
    m.read(1, 0x10000);
    m.read(2, 0x10000);
    m.write(3, 0x10000);
    EXPECT_EQ(m.l1(0).state(0x10000), LineState::Invalid);
    EXPECT_EQ(m.l1(1).state(0x10000), LineState::Invalid);
    EXPECT_EQ(m.l1(2).state(0x10000), LineState::Invalid);
    EXPECT_EQ(m.l1(3).state(0x10000), LineState::Modified);
}

TEST(MemorySystem, PingPongBetweenWriters)
{
    auto m = makeSystem();
    m.write(0, 0x10000);
    const auto r1 = m.write(1, 0x10000);
    EXPECT_EQ(r1.servedBy, AccessLevel::RemoteL1);
    EXPECT_TRUE(r1.coherence);
    const auto r0 = m.write(0, 0x10000);
    EXPECT_EQ(r0.servedBy, AccessLevel::RemoteL1);
    EXPECT_GE(m.remoteForwards.value(), 2u);
}

TEST(MemorySystem, SharedWriteUpgradePaysDirectoryLatency)
{
    auto m = makeSystem();
    m.read(0, 0x10000);
    m.read(1, 0x10000); // both S
    const auto r = m.write(0, 0x10000);
    EXPECT_EQ(r.latency, m.latencies().llcHit);
    EXPECT_TRUE(r.coherence);
    EXPECT_EQ(m.l1(1).state(0x10000), LineState::Invalid);
}

TEST(MemorySystem, AtomicRmwAddsExtraLatency)
{
    auto m = makeSystem();
    m.write(0, 0x10000);
    const auto w = m.write(0, 0x10000);
    const auto a = m.atomicRmw(0, 0x10000);
    EXPECT_EQ(a.latency, w.latency + m.latencies().atomicExtra);
}

TEST(MemorySystem, DeviceWriteInvalidatesAllAndFillsLlc)
{
    auto m = makeSystem();
    m.read(0, 0x10000);
    m.read(1, 0x10000);
    m.deviceWrite(0x10000);
    EXPECT_EQ(m.l1(0).state(0x10000), LineState::Invalid);
    EXPECT_EQ(m.l1(1).state(0x10000), LineState::Invalid);
    EXPECT_TRUE(m.llc().contains(0x10000));
    const auto r = m.read(0, 0x10000);
    EXPECT_EQ(r.servedBy, AccessLevel::LLC);
}

class RecordingSnooper : public Snooper
{
  public:
    void
    onWriteTransaction(Addr line, CoreId writer) override
    {
        events.emplace_back(line, writer);
    }
    std::vector<std::pair<Addr, CoreId>> events;
};

TEST(MemorySystem, SnooperSeesWritesInRange)
{
    auto m = makeSystem();
    RecordingSnooper snoop;
    m.watchRange(0x1000, 0x2000, &snoop);
    m.write(2, 0x1800);
    ASSERT_EQ(snoop.events.size(), 1u);
    EXPECT_EQ(snoop.events[0].first, lineBase(0x1800));
    EXPECT_EQ(snoop.events[0].second, 2u);
}

TEST(MemorySystem, SnooperIgnoresWritesOutsideRange)
{
    auto m = makeSystem();
    RecordingSnooper snoop;
    m.watchRange(0x1000, 0x2000, &snoop);
    m.write(0, 0x3000);
    m.read(0, 0x1800); // reads never fire the snoop
    EXPECT_TRUE(snoop.events.empty());
}

TEST(MemorySystem, SnooperSeesDeviceWrites)
{
    auto m = makeSystem();
    RecordingSnooper snoop;
    m.watchRange(0x1000, 0x2000, &snoop);
    m.deviceWrite(0x1040);
    ASSERT_EQ(snoop.events.size(), 1u);
    EXPECT_EQ(snoop.events[0].second, deviceWriter);
}

TEST(MemorySystem, SnooperNotFiredByLocalModifiedWrites)
{
    auto m = makeSystem();
    RecordingSnooper snoop;
    m.watchRange(0x1000, 0x2000, &snoop);
    m.write(0, 0x1000); // GetM: fires
    m.write(0, 0x1000); // M hit: silent
    m.write(0, 0x1000);
    EXPECT_EQ(snoop.events.size(), 1u);
}

TEST(MemorySystem, UnwatchStopsNotifications)
{
    auto m = makeSystem();
    RecordingSnooper snoop;
    m.watchRange(0x1000, 0x2000, &snoop);
    m.unwatch(&snoop);
    m.write(0, 0x1000);
    EXPECT_TRUE(snoop.events.empty());
}

TEST(MemorySystem, LlcEvictionBackInvalidatesL1)
{
    // Tiny LLC: 2 sets x 2 ways.
    MemorySystem m(4, CacheGeometry{32 * 1024, 4, 64},
                   CacheGeometry{256, 2, 64});
    const Addr a = 0x0000;
    // Three sharers: the line's sharer set spills to the overflow pool.
    for (CoreId c = 0; c < 3; ++c)
        m.read(c, a);
    ASSERT_EQ(m.l1(2).state(a), LineState::Shared);
    const std::uint64_t invalidationsBefore = m.invalidations.value();
    // Fill the LLC set until `a` is evicted (stride = 2 sets x 64 B).
    for (int i = 1; i <= 2; ++i)
        m.read(3, a + i * 128);
    EXPECT_FALSE(m.llc().contains(a));
    // Inclusive hierarchy: every L1 copy must be gone too.
    for (CoreId c = 0; c < 3; ++c)
        EXPECT_FALSE(m.l1(c).contains(a)) << "core " << c;
    EXPECT_EQ(m.invalidations.value() - invalidationsBefore, 3u);
    EXPECT_EQ(m.directoryLines(), 2u);
    m.checkDirectoryConsistency();
}

TEST(MemorySystem, FlushAllEmptiesCaches)
{
    auto m = makeSystem();
    m.read(0, 0x10000);
    m.write(1, 0x20000);
    m.flushAll();
    EXPECT_FALSE(m.l1(0).contains(0x10000));
    EXPECT_FALSE(m.l1(1).contains(0x20000));
    EXPECT_FALSE(m.llc().contains(0x10000));
}

TEST(MemorySystem, StatsCountersAdvance)
{
    auto m = makeSystem();
    m.read(0, 0x10000);
    m.read(0, 0x10000);
    m.read(1, 0x50000);
    EXPECT_GE(m.l1Hits.value(), 1u);
    EXPECT_GE(m.memAccesses.value(), 2u);
}

TEST(MemorySystem, DirectoryStaysConsistent)
{
    auto m = makeSystem();
    m.read(0, 0x10000);
    m.write(1, 0x10000);
    m.read(2, 0x10000);
    m.deviceWrite(0x10000);
    m.checkDirectoryConsistency();
    m.flushAll();
    EXPECT_EQ(m.directoryLines(), 0u);
    m.checkDirectoryConsistency();
}

TEST(MemorySystem, OverlappingWatchRangesFireInRegistrationOrder)
{
    auto m = makeSystem();
    RecordingSnooper first, second;
    m.watchRange(0x1000, 0x3000, &first);
    m.watchRange(0x2000, 0x4000, &second); // overlaps the first
    m.write(0, 0x2800);                    // inside both
    ASSERT_EQ(first.events.size(), 1u);
    ASSERT_EQ(second.events.size(), 1u);
    m.write(1, 0x1100); // first only
    m.write(2, 0x3800); // second only
    EXPECT_EQ(first.events.size(), 2u);
    EXPECT_EQ(second.events.size(), 2u);
    EXPECT_EQ(m.snoopHits.value(), 4u);
}

TEST(MemorySystem, ManyDisjointWatchRangesDispatchExactly)
{
    auto m = makeSystem();
    std::vector<std::unique_ptr<RecordingSnooper>> snoops;
    for (unsigned i = 0; i < 16; ++i) {
        snoops.push_back(std::make_unique<RecordingSnooper>());
        const Addr lo = 0x10000 + i * 0x1000;
        m.watchRange(lo, lo + 0x1000, snoops.back().get());
    }
    m.write(0, 0x10000 + 5 * 0x1000 + 0x40); // range 5 only
    m.write(1, 0x0fff);                      // below every range
    m.write(2, 0x10000 + 16 * 0x1000);       // above every range
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(snoops[i]->events.size(), i == 5 ? 1u : 0u);
}

// ---------------------------------------------------------------------
// Randomized differential test: the directory-backed MemorySystem vs a
// reference model replicating the pre-directory O(cores) tag-array
// scans.  The directory is a redundant index, so every AccessResult,
// every counter, every snoop delivery, and the final tag-array state
// must be identical.
// ---------------------------------------------------------------------

/** The scan-based coherence model this repo used before the directory. */
class RefMemorySystem
{
  public:
    RefMemorySystem(unsigned numCores, const CacheGeometry &l1Geom,
                    const CacheGeometry &llcGeom)
        : llc_(llcGeom)
    {
        for (unsigned i = 0; i < numCores; ++i)
            l1s_.emplace_back(l1Geom);
    }

    std::uint64_t l1Hits = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t remoteForwards = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t writeTransactions = 0;
    std::uint64_t snoopHits = 0;

    std::vector<CacheArray> l1s_;
    CacheArray llc_;
    MemLatencies lat_{};

    void
    watchRange(Addr lo, Addr hi, Snooper *snooper)
    {
        watches_.push_back({lo, hi, snooper});
    }

    AccessResult
    read(CoreId core, Addr addr)
    {
        const Addr line = lineBase(addr);
        CacheArray &l1c = l1s_[core];
        if (l1c.contains(line)) {
            l1c.touch(line);
            l1c.hits.inc();
            ++l1Hits;
            return {lat_.l1Hit, AccessLevel::L1, false};
        }
        l1c.misses.inc();
        const int owner = findOwner(line, core);
        if (owner >= 0) {
            l1s_[owner].setState(line, LineState::Shared);
            insertLlc(line);
            insertL1(core, line, LineState::Shared);
            ++remoteForwards;
            return {lat_.remoteL1Forward, AccessLevel::RemoteL1, true};
        }
        if (llc_.contains(line)) {
            llc_.touch(line);
            llc_.hits.inc();
            ++llcHits;
            const bool shared = anyOtherSharer(line, core);
            insertL1(core, line,
                     shared ? LineState::Shared : LineState::Exclusive);
            return {lat_.llcHit, AccessLevel::LLC, false};
        }
        llc_.misses.inc();
        ++memAccesses;
        insertLlc(line);
        insertL1(core, line, LineState::Exclusive);
        return {lat_.memAccess, AccessLevel::Memory, false};
    }

    AccessResult
    write(CoreId core, Addr addr)
    {
        const Addr line = lineBase(addr);
        CacheArray &l1c = l1s_[core];
        const LineState myState = l1c.state(line);
        if (myState == LineState::Modified) {
            l1c.touch(line);
            l1c.hits.inc();
            ++l1Hits;
            return {lat_.l1Hit, AccessLevel::L1, false};
        }
        if (myState == LineState::Exclusive) {
            l1c.setState(line, LineState::Modified);
            l1c.touch(line);
            l1c.hits.inc();
            ++l1Hits;
            return {lat_.l1Hit, AccessLevel::L1, false};
        }
        ++writeTransactions;
        notifySnoopers(line, core);
        if (myState == LineState::Shared) {
            invalidateOthers(line, core);
            l1c.setState(line, LineState::Modified);
            l1c.touch(line);
            return {lat_.llcHit, AccessLevel::LLC, true};
        }
        l1c.misses.inc();
        const int owner = findOwner(line, core);
        if (owner >= 0) {
            l1s_[owner].invalidate(line);
            ++invalidations;
            insertLlc(line);
            insertL1(core, line, LineState::Modified);
            ++remoteForwards;
            return {lat_.remoteL1Forward, AccessLevel::RemoteL1, true};
        }
        if (llc_.contains(line)) {
            llc_.touch(line);
            llc_.hits.inc();
            ++llcHits;
            const bool hadSharers = invalidateOthers(line, core) > 0;
            insertL1(core, line, LineState::Modified);
            return {lat_.llcHit, AccessLevel::LLC, hadSharers};
        }
        llc_.misses.inc();
        ++memAccesses;
        insertLlc(line);
        insertL1(core, line, LineState::Modified);
        return {lat_.memAccess, AccessLevel::Memory, false};
    }

    AccessResult
    atomicRmw(CoreId core, Addr addr)
    {
        AccessResult r = write(core, addr);
        r.latency += lat_.atomicExtra;
        return r;
    }

    void
    deviceWrite(Addr addr)
    {
        const Addr line = lineBase(addr);
        ++writeTransactions;
        notifySnoopers(line, deviceWriter);
        invalidateOthers(line, deviceWriter);
        insertLlc(line);
        llc_.touch(line);
    }

  private:
    struct WatchedRange
    {
        Addr lo;
        Addr hi;
        Snooper *snooper;
    };

    int
    findOwner(Addr line, CoreId except) const
    {
        for (unsigned c = 0; c < l1s_.size(); ++c) {
            if (c == except)
                continue;
            const LineState st = l1s_[c].state(line);
            if (st == LineState::Modified || st == LineState::Exclusive)
                return static_cast<int>(c);
        }
        return -1;
    }

    bool
    anyOtherSharer(Addr line, CoreId except) const
    {
        for (unsigned c = 0; c < l1s_.size(); ++c) {
            if (c != except && l1s_[c].contains(line))
                return true;
        }
        return false;
    }

    unsigned
    invalidateOthers(Addr line, CoreId except)
    {
        unsigned n = 0;
        for (unsigned c = 0; c < l1s_.size(); ++c) {
            if (c == except)
                continue;
            if (l1s_[c].invalidate(line) != LineState::Invalid)
                ++n;
        }
        invalidations += n;
        return n;
    }

    void
    insertLlc(Addr line)
    {
        if (auto victim = llc_.insert(line, LineState::Shared).victim)
            invalidateOthers(victim->first, deviceWriter);
    }

    void
    insertL1(CoreId core, Addr line, LineState st)
    {
        (void)l1s_[core].insert(line, st);
    }

    void
    notifySnoopers(Addr line, CoreId writer)
    {
        for (const auto &w : watches_) {
            if (line >= w.lo && line < w.hi) {
                ++snoopHits;
                w.snooper->onWriteTransaction(line, writer);
            }
        }
    }

    std::vector<WatchedRange> watches_;
};

void
runDifferential(unsigned numCores, std::uint64_t seed, unsigned ops)
{
    SCOPED_TRACE("numCores=" + std::to_string(numCores));
    // Tiny caches so evictions, LLC back-invalidation, and set-conflict
    // aliasing all fire constantly.
    const CacheGeometry l1Geom{4 * 1024, 4, 64};   // 16 sets
    const CacheGeometry llcGeom{64 * 1024, 8, 64}; // 128 sets
    MemorySystem dut(numCores, l1Geom, llcGeom);
    RefMemorySystem ref(numCores, l1Geom, llcGeom);

    RecordingSnooper dutSnoop, refSnoop;
    // Two disjoint doorbell-style ranges (the sorted-index dispatch
    // path) covering part of the line pool.
    dut.watchRange(0x0000, 0x4000, &dutSnoop);
    dut.watchRange(0x8000, 0xc000, &dutSnoop);
    ref.watchRange(0x0000, 0x4000, &refSnoop);
    ref.watchRange(0x8000, 0xc000, &refSnoop);

    std::mt19937_64 rng(seed);
    const unsigned numLines = 1024;
    for (unsigned i = 0; i < ops; ++i) {
        const Addr addr = (rng() % numLines) * cacheLineBytes +
                          (rng() % cacheLineBytes);
        const auto core = static_cast<CoreId>(rng() % numCores);
        const unsigned op = rng() % 10;
        AccessResult a{}, b{};
        if (op < 4) {
            a = dut.read(core, addr);
            b = ref.read(core, addr);
        } else if (op < 7) {
            a = dut.write(core, addr);
            b = ref.write(core, addr);
        } else if (op < 8) {
            a = dut.atomicRmw(core, addr);
            b = ref.atomicRmw(core, addr);
        } else {
            dut.deviceWrite(addr);
            ref.deviceWrite(addr);
        }
        ASSERT_EQ(a.latency, b.latency) << "op " << i;
        ASSERT_EQ(a.servedBy, b.servedBy) << "op " << i;
        ASSERT_EQ(a.coherence, b.coherence) << "op " << i;
        if (i % 8192 == 0)
            dut.checkDirectoryConsistency();
    }
    dut.checkDirectoryConsistency();

    // Counters.
    EXPECT_EQ(dut.l1Hits.value(), ref.l1Hits);
    EXPECT_EQ(dut.llcHits.value(), ref.llcHits);
    EXPECT_EQ(dut.remoteForwards.value(), ref.remoteForwards);
    EXPECT_EQ(dut.memAccesses.value(), ref.memAccesses);
    EXPECT_EQ(dut.invalidations.value(), ref.invalidations);
    EXPECT_EQ(dut.writeTransactions.value(), ref.writeTransactions);
    EXPECT_EQ(dut.snoopHits.value(), ref.snoopHits);

    // Per-array counters and residency.
    for (unsigned c = 0; c < numCores; ++c) {
        EXPECT_EQ(dut.l1(c).hits.value(), ref.l1s_[c].hits.value());
        EXPECT_EQ(dut.l1(c).misses.value(), ref.l1s_[c].misses.value());
        EXPECT_EQ(dut.l1(c).evictions.value(),
                  ref.l1s_[c].evictions.value());
        EXPECT_EQ(dut.l1(c).residentLines(),
                  ref.l1s_[c].residentLines());
    }
    EXPECT_EQ(dut.llc().hits.value(), ref.llc_.hits.value());
    EXPECT_EQ(dut.llc().misses.value(), ref.llc_.misses.value());
    EXPECT_EQ(dut.llc().evictions.value(), ref.llc_.evictions.value());
    EXPECT_EQ(dut.llc().residentLines(), ref.llc_.residentLines());

    // Final tag-array state, line by line.
    for (unsigned l = 0; l < numLines; ++l) {
        const Addr line = l * cacheLineBytes;
        for (unsigned c = 0; c < numCores; ++c) {
            ASSERT_EQ(dut.l1(c).state(line), ref.l1s_[c].state(line))
                << "line " << l << " core " << c;
        }
        ASSERT_EQ(dut.llc().state(line), ref.llc_.state(line))
            << "line " << l;
    }

    // Snoop deliveries: same lines, same writers, same order.
    ASSERT_EQ(dutSnoop.events.size(), refSnoop.events.size());
    for (std::size_t i = 0; i < dutSnoop.events.size(); ++i) {
        ASSERT_EQ(dutSnoop.events[i], refSnoop.events[i])
            << "snoop " << i;
    }
}

TEST(MemorySystemDifferential, OneCore)
{
    runDifferential(1, 0x1001, 100000);
}

TEST(MemorySystemDifferential, TwoCores)
{
    runDifferential(2, 0x1002, 100000);
}

TEST(MemorySystemDifferential, SixteenCores)
{
    runDifferential(16, 0x1016, 100000);
}

TEST(MemorySystemDifferential, SixtyFourCores)
{
    runDifferential(64, 0x1064, 100000);
}

// Sharer ids land in the directory's second mask word.
TEST(MemorySystemDifferential, HundredTwentyEightCores)
{
    runDifferential(128, 0x1128, 100000);
}

// Widest supported machine: sharer ids reach the last mask word and the
// 11-bit inline id field's top value.  The reference model sweeps every
// core per op, so fewer ops keep the test near one second.
TEST(MemorySystemDifferential, MaxDirectoryCores)
{
    runDifferential(maxDirectoryCores, 0x1400, 50000);
}

} // namespace
} // namespace mem
} // namespace hyperplane
