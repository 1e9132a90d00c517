/**
 * @file
 * Frame pool + free-index-stack tests: exhaustion is a graceful
 * condition (the server counts it), refcounted handles return frames
 * exactly once, and the lock-free free list survives concurrent
 * hammering without losing or duplicating an index.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "queueing/free_stack.hh"
#include "server/buffer_pool.hh"

namespace hyperplane {
namespace server {
namespace {

TEST(FreeIndexStack, StartsFullAndDrainsEveryIndexOnce)
{
    queueing::FreeIndexStack st(16);
    EXPECT_EQ(st.capacity(), 16u);
    EXPECT_EQ(st.approxSize(), 16u);
    std::set<std::uint32_t> seen;
    std::uint32_t idx;
    while (st.tryPop(idx)) {
        EXPECT_LT(idx, 16u);
        EXPECT_TRUE(seen.insert(idx).second) << "duplicate " << idx;
    }
    EXPECT_EQ(seen.size(), 16u);
    EXPECT_EQ(st.approxSize(), 0u);
    EXPECT_FALSE(st.tryPop(idx));
}

TEST(FreeIndexStack, PushedIndexComesBack)
{
    queueing::FreeIndexStack st(4);
    std::uint32_t idx;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(st.tryPop(idx));
    ASSERT_FALSE(st.tryPop(idx));
    st.push(2);
    ASSERT_TRUE(st.tryPop(idx));
    EXPECT_EQ(idx, 2u);
}

TEST(FreeIndexStack, ConcurrentPopPushConservesIndices)
{
    // N threads pop/push in tight loops; afterwards the stack must hold
    // exactly the full index set again (nothing lost, nothing forged).
    static constexpr std::uint32_t cap = 64;
    queueing::FreeIndexStack st(cap);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&st, &go] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < 20000; ++i) {
                std::uint32_t idx;
                if (st.tryPop(idx)) {
                    ASSERT_LT(idx, cap);
                    st.push(idx);
                }
            }
        });
    }
    go.store(true);
    for (auto &th : threads)
        th.join();
    std::set<std::uint32_t> seen;
    std::uint32_t idx;
    while (st.tryPop(idx))
        ASSERT_TRUE(seen.insert(idx).second);
    EXPECT_EQ(seen.size(), cap);
}

TEST(FramePool, ExhaustionIsGracefulAndCounted)
{
    FramePool pool(3, 128);
    EXPECT_EQ(pool.numFrames(), 3u);
    EXPECT_EQ(pool.frameBytes(), 128u);
    EXPECT_EQ(pool.freeFrames(), 3u);

    std::vector<FrameHandle> held;
    for (int i = 0; i < 3; ++i) {
        FrameHandle h = pool.tryAcquire();
        ASSERT_TRUE(static_cast<bool>(h));
        EXPECT_EQ(h.capacity(), 128u);
        held.push_back(std::move(h));
    }
    EXPECT_EQ(pool.freeFrames(), 0u);

    FrameHandle dry = pool.tryAcquire();
    EXPECT_FALSE(static_cast<bool>(dry));

    held.pop_back();
    EXPECT_EQ(pool.freeFrames(), 1u);
    FrameHandle again = pool.tryAcquire();
    EXPECT_TRUE(static_cast<bool>(again));
}

TEST(FramePool, CopySharesAndLastReleaseReturnsFrame)
{
    FramePool pool(1, 64);
    FrameHandle a = pool.tryAcquire();
    ASSERT_TRUE(static_cast<bool>(a));
    a.data()[0] = 0x5a;
    {
        FrameHandle b = a; // shared: refcount 2
        EXPECT_EQ(b.data(), a.data());
        EXPECT_EQ(pool.freeFrames(), 0u);
    }
    // b released; a still owns the frame.
    EXPECT_EQ(pool.freeFrames(), 0u);
    EXPECT_EQ(a.data()[0], 0x5a);
    a.reset();
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_EQ(pool.freeFrames(), 1u);
}

TEST(FramePool, MoveTransfersOwnershipWithoutRefchurn)
{
    FramePool pool(1, 64);
    FrameHandle a = pool.tryAcquire();
    std::uint8_t *p = a.data();
    FrameHandle b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    EXPECT_EQ(b.data(), p);
    EXPECT_EQ(pool.freeFrames(), 0u);
    b.reset();
    EXPECT_EQ(pool.freeFrames(), 1u);
}

TEST(FramePool, ReusedFrameIsFullyWritable)
{
    // Acquire/fill/release in a loop: the slab slot must be writable
    // end to end every round (ASan would flag an off-by-one stride).
    FramePool pool(2, 96);
    for (int round = 0; round < 8; ++round) {
        FrameHandle h = pool.tryAcquire();
        ASSERT_TRUE(static_cast<bool>(h));
        std::memset(h.data(), round, h.capacity());
        EXPECT_EQ(h.data()[h.capacity() - 1],
                  static_cast<std::uint8_t>(round));
    }
}

TEST(FramePool, ConcurrentAcquireReleaseHammer)
{
    // More threads than frames: constant contention on the free list
    // and the refcounts.  Every byte write is to an exclusively owned
    // frame, so TSan/ASan runs double as data-race and lifetime checks.
    FramePool pool(4, 256);
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> acquired{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
        threads.emplace_back([&pool, &go, &acquired, t] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < 5000; ++i) {
                FrameHandle h = pool.tryAcquire();
                if (!h)
                    continue;
                acquired.fetch_add(1);
                h.data()[0] = static_cast<std::uint8_t>(t);
                FrameHandle shared = h;
                ASSERT_EQ(shared.data()[0],
                          static_cast<std::uint8_t>(t));
            }
        });
    }
    go.store(true);
    for (auto &th : threads)
        th.join();
    EXPECT_GT(acquired.load(), 0u);
    EXPECT_EQ(pool.freeFrames(), 4u); // every frame came home
}

} // namespace
} // namespace server
} // namespace hyperplane
