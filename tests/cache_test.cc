/**
 * @file
 * Unit tests for the set-associative cache tag array.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "mem/cache.hh"

namespace hyperplane {
namespace mem {
namespace {

CacheGeometry
smallGeom()
{
    // 8 sets x 2 ways x 64 B = 1 KiB.
    return CacheGeometry{1024, 2, 64};
}

TEST(CacheArray, StartsEmpty)
{
    CacheArray c(smallGeom());
    EXPECT_EQ(c.residentLines(), 0u);
    EXPECT_EQ(c.state(0x1000), LineState::Invalid);
    EXPECT_FALSE(c.contains(0x1000));
}

TEST(CacheArray, GeometryDerivesSets)
{
    EXPECT_EQ(smallGeom().sets(), 8u);
    CacheArray c(smallGeom());
    EXPECT_EQ(c.capacityLines(), 16u);
}

TEST(CacheArray, InsertThenHit)
{
    CacheArray c(smallGeom());
    c.insert(0x1000, LineState::Exclusive);
    EXPECT_TRUE(c.contains(0x1000));
    EXPECT_EQ(c.state(0x1000), LineState::Exclusive);
    EXPECT_EQ(c.residentLines(), 1u);
}

TEST(CacheArray, SubLineAddressesAlias)
{
    CacheArray c(smallGeom());
    c.insert(0x1000, LineState::Shared);
    EXPECT_TRUE(c.contains(0x1004));
    EXPECT_TRUE(c.contains(0x103f));
    EXPECT_FALSE(c.contains(0x1040));
}

TEST(CacheArray, LruEvictionWithinSet)
{
    CacheArray c(smallGeom());
    // Three lines mapping to the same set (stride = sets * lineBytes).
    const Addr a = 0x0000, b = a + 8 * 64, d = a + 16 * 64;
    c.insert(a, LineState::Shared);
    c.insert(b, LineState::Shared);
    c.touch(a); // b is now LRU
    const auto victim = c.insert(d, LineState::Shared).victim;
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->first, b);
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
}

TEST(CacheArray, InsertExistingUpdatesStateWithoutEviction)
{
    CacheArray c(smallGeom());
    c.insert(0x1000, LineState::Shared);
    const auto victim = c.insert(0x1000, LineState::Modified).victim;
    EXPECT_FALSE(victim.has_value());
    EXPECT_EQ(c.state(0x1000), LineState::Modified);
    EXPECT_EQ(c.residentLines(), 1u);
}

TEST(CacheArray, InvalidateRemovesAndReportsPriorState)
{
    CacheArray c(smallGeom());
    c.insert(0x1000, LineState::Modified);
    EXPECT_EQ(c.invalidate(0x1000), LineState::Modified);
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_EQ(c.invalidate(0x1000), LineState::Invalid);
    EXPECT_EQ(c.residentLines(), 0u);
}

TEST(CacheArray, SetStateChangesState)
{
    CacheArray c(smallGeom());
    c.insert(0x1000, LineState::Exclusive);
    c.setState(0x1000, LineState::Shared);
    EXPECT_EQ(c.state(0x1000), LineState::Shared);
}

TEST(CacheArray, EvictionCounterAdvances)
{
    CacheArray c(smallGeom());
    const Addr stride = 8 * 64;
    for (int i = 0; i < 5; ++i)
        c.insert(i * stride, LineState::Shared);
    EXPECT_EQ(c.evictions.value(), 3u); // 2 ways, 5 inserts same set
}

TEST(CacheArray, CapacityNeverExceeded)
{
    CacheArray c(smallGeom());
    for (Addr a = 0; a < 64 * 1024; a += 64)
        c.insert(a, LineState::Shared);
    EXPECT_LE(c.residentLines(), c.capacityLines());
    EXPECT_EQ(c.residentLines(), c.capacityLines());
}

TEST(CacheArray, FlushEmptiesEverything)
{
    CacheArray c(smallGeom());
    for (Addr a = 0; a < 512; a += 64)
        c.insert(a, LineState::Shared);
    c.flush();
    EXPECT_EQ(c.residentLines(), 0u);
    for (Addr a = 0; a < 512; a += 64)
        EXPECT_FALSE(c.contains(a));
}

TEST(CacheArray, InvalidWayIsReusedBeforeLru)
{
    // 4 sets x 4 ways; five lines in one set.
    CacheArray c(CacheGeometry{1024, 4, 64});
    const Addr stride = c.geometry().sets() * 64;
    for (unsigned i = 0; i < 4; ++i)
        c.insert(i * stride, LineState::Shared);
    // Line 0 is LRU; free two younger ways.  The fill takes the one
    // that comes first in the set (the lower slot).
    const CacheArray::Slot first =
        std::min(c.find(1 * stride), c.find(3 * stride));
    c.invalidate(3 * stride);
    c.invalidate(1 * stride);
    const CacheArray::Fill fill = c.insert(4 * stride, LineState::Shared);
    EXPECT_EQ(fill.slot, first);
    EXPECT_FALSE(fill.victim.has_value());
    EXPECT_EQ(c.evictions.value(), 0u);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(2 * stride));
    EXPECT_EQ(c.residentLines(), 3u);
}

TEST(CacheArray, LineZeroRoundTrips)
{
    // Tags are stored as line|1, so line 0 must not alias an empty way.
    CacheArray c(smallGeom());
    EXPECT_FALSE(c.contains(0));
    EXPECT_FALSE(c.lookup(0));
    c.insert(0, LineState::Exclusive);
    EXPECT_TRUE(c.contains(0));
    EXPECT_EQ(c.state(0x3f), LineState::Exclusive);
    c.lookup(0).setState(LineState::Modified);
    EXPECT_EQ(c.invalidate(0), LineState::Modified);
    EXPECT_FALSE(c.contains(0));
    EXPECT_EQ(c.residentLines(), 0u);
}

TEST(CacheArray, InsertResidentReturnsItsSlot)
{
    CacheArray c(smallGeom());
    const CacheArray::Slot s = c.insert(0x1000, LineState::Shared).slot;
    EXPECT_EQ(c.find(0x1000), s);
    EXPECT_EQ(c.lookup(0x1000).slot(), s);
    const CacheArray::Fill again = c.insert(0x1000, LineState::Modified);
    EXPECT_EQ(again.slot, s);
    EXPECT_FALSE(again.victim.has_value());
}

TEST(CacheArray, AuxWordStaysWithItsSlot)
{
    // Two-way set: the aux word survives LRU updates, and an evicting
    // fill leaves the victim's aux word for the caller to retire.
    CacheArray c(smallGeom());
    const Addr stride = c.geometry().sets() * 64;
    const CacheArray::Slot a = c.insert(0, LineState::Shared).slot;
    c.aux(a) = 42;
    c.insert(stride, LineState::Shared);
    c.touchAt(c.find(stride)); // line 0 is LRU
    EXPECT_EQ(c.aux(a), 42u);
    const CacheArray::Fill fill = c.insert(2 * stride, LineState::Shared);
    ASSERT_TRUE(fill.victim.has_value());
    EXPECT_EQ(fill.victim->first, 0u);
    EXPECT_EQ(fill.slot, a);
    EXPECT_EQ(c.aux(fill.slot), 42u);
    c.flush();
    EXPECT_EQ(c.aux(a), 0u);
}

/** Property sweep: different geometries keep the invariant resident <=
 *  capacity and find what they inserted most recently. */
class CacheGeometrySweep
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(CacheGeometrySweep, RecentInsertsAreResident)
{
    const auto [sizeKb, ways] = GetParam();
    CacheArray c(CacheGeometry{sizeKb * 1024ull, ways, 64});
    const unsigned keep = ways; // one set's worth, same set
    const Addr stride = c.geometry().sets() * 64;
    for (unsigned i = 0; i < keep * 3; ++i)
        c.insert(i * stride, LineState::Shared);
    // The last `ways` inserts into the set must all be resident.
    for (unsigned i = keep * 3 - ways; i < keep * 3; ++i)
        EXPECT_TRUE(c.contains(i * stride));
    EXPECT_LE(c.residentLines(), c.capacityLines());
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometrySweep,
                         ::testing::Values(std::make_pair(1u, 2u),
                                           std::make_pair(4u, 4u),
                                           std::make_pair(32u, 4u),
                                           std::make_pair(64u, 8u),
                                           std::make_pair(256u, 16u)));

TEST(CacheArrayLookup, MissYieldsFalseHandle)
{
    CacheArray c(smallGeom());
    CacheArray::WayRef way = c.lookup(0x1000);
    EXPECT_FALSE(way);
    EXPECT_EQ(way.state(), LineState::Invalid);
}

TEST(CacheArrayLookup, HitHandleReadsAndMutatesInPlace)
{
    CacheArray c(smallGeom());
    c.insert(0x1000, LineState::Exclusive);
    CacheArray::WayRef way = c.lookup(0x1000);
    ASSERT_TRUE(way);
    EXPECT_EQ(way.state(), LineState::Exclusive);
    way.setState(LineState::Modified);
    EXPECT_EQ(c.state(0x1000), LineState::Modified);
}

TEST(CacheArrayLookup, TouchThroughHandleProtectsFromEviction)
{
    // Two-way set: insert A then B, touch A through a handle, insert a
    // conflicting C -- LRU must evict B, not A.
    CacheArray c(smallGeom());
    const Addr stride = c.geometry().sets() * 64;
    c.insert(0, LineState::Shared);          // A
    c.insert(stride, LineState::Shared);     // B (A now LRU)
    c.lookup(0).touch();                     // A becomes MRU
    c.insert(2 * stride, LineState::Shared); // C evicts LRU
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(stride));
}

TEST(CacheArrayLookup, LookupMatchesLegacyQueries)
{
    CacheArray c(smallGeom());
    c.insert(0x2000, LineState::Shared);
    for (const Addr a : {Addr{0x1000}, Addr{0x2000}, Addr{0x2040}}) {
        CacheArray::WayRef way = c.lookup(a);
        EXPECT_EQ(static_cast<bool>(way), c.contains(a));
        EXPECT_EQ(way.state(), c.state(a));
    }
}

} // namespace
} // namespace mem
} // namespace hyperplane
