/**
 * @file
 * Unit and threading tests for the bounded MPMC queue.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "queueing/mpmc_queue.hh"

namespace hyperplane {
namespace queueing {
namespace {

TEST(MpmcQueue, FifoOrderSingleThread)
{
    MpmcQueue<int> q(8);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(q.tryPush(int(i)));
    for (int i = 0; i < 5; ++i) {
        const auto v = q.tryPop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(q.tryPop().has_value());
}

TEST(MpmcQueue, CapacityBoundsRejectsWhenFull)
{
    MpmcQueue<int> q(2);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_FALSE(q.tryPush(3));
    EXPECT_EQ(q.size(), 2u);
    q.tryPop();
    EXPECT_TRUE(q.tryPush(3));
}

TEST(MpmcQueue, PopBatchDrainsUpToMax)
{
    MpmcQueue<int> q(16);
    for (int i = 0; i < 10; ++i)
        q.tryPush(int(i));
    std::vector<int> out;
    EXPECT_EQ(q.popBatch(out, 4), 4u);
    EXPECT_EQ(out.size(), 4u);
    EXPECT_EQ(out.front(), 0);
    EXPECT_EQ(q.popBatch(out, 100), 6u);
    EXPECT_EQ(out.size(), 10u);
    EXPECT_EQ(out.back(), 9);
    EXPECT_TRUE(q.empty());
}

TEST(MpmcQueue, MoveOnlyElements)
{
    MpmcQueue<std::unique_ptr<std::string>> q(4);
    EXPECT_TRUE(q.tryPush(std::make_unique<std::string>("hello")));
    const auto v = q.tryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(**v, "hello");
}

TEST(MpmcQueue, CountersTrackPushesAndPops)
{
    MpmcQueue<int> q(8);
    for (int i = 0; i < 6; ++i)
        q.tryPush(int(i));
    std::vector<int> out;
    EXPECT_EQ(q.popBatch(out, 4), 4u);
    EXPECT_EQ(q.size(), 2u);
    // A rejected push must not advance the counter.
    MpmcQueue<int> tiny(1);
    EXPECT_TRUE(tiny.tryPush(1));
    EXPECT_FALSE(tiny.tryPush(2));
    EXPECT_EQ(tiny.size(), 1u);
}

TEST(MpmcQueue, FullQueuePushFailuresAreCountedNotSilent)
{
    MpmcQueue<int> q(2);
    EXPECT_TRUE(q.tryPush(10));
    EXPECT_TRUE(q.tryPush(20));

    // Rejected pushes must be observable: the overload-shedding path
    // turns each false return into a typed reject, so a silent drop
    // here would be an unaccounted loss.
    EXPECT_FALSE(q.tryPush(30));
    EXPECT_FALSE(q.tryPush(31));
    EXPECT_EQ(q.size(), 2u);

    // The stored elements survive the failed pushes untouched.
    EXPECT_EQ(q.tryPop().value(), 10);
    EXPECT_EQ(q.tryPop().value(), 20);
    EXPECT_TRUE(q.empty());

    // After making room, pushes succeed again.
    EXPECT_TRUE(q.tryPush(40));
    EXPECT_EQ(q.size(), 1u);
}

TEST(MpmcQueue, ManyProducersManyConsumersLoseNothing)
{
    constexpr int producers = 4;
    constexpr int consumers = 4;
    constexpr std::uint64_t perProducer = 20000;
    MpmcQueue<std::uint64_t> q(1024);
    std::atomic<std::uint64_t> popped{0};
    std::atomic<std::uint64_t> sum{0};

    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&q, p] {
            for (std::uint64_t i = 0; i < perProducer; ++i) {
                std::uint64_t v = p * perProducer + i;
                while (!q.tryPush(std::move(v)))
                    std::this_thread::yield();
            }
        });
    }
    for (int c = 0; c < consumers; ++c) {
        threads.emplace_back([&] {
            std::vector<std::uint64_t> batch;
            while (popped.load() < producers * perProducer) {
                batch.clear();
                const std::size_t n = q.popBatch(batch, 64);
                if (n == 0) {
                    std::this_thread::yield();
                    continue;
                }
                std::uint64_t s = 0;
                for (std::uint64_t v : batch)
                    s += v;
                sum.fetch_add(s);
                popped.fetch_add(n);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    constexpr std::uint64_t total = producers * perProducer;
    EXPECT_EQ(popped.load(), total);
    EXPECT_EQ(sum.load(), total * (total - 1) / 2);
    EXPECT_TRUE(q.empty());
}

} // namespace
} // namespace queueing
} // namespace hyperplane
