/**
 * @file
 * Threading tests for the emu worker pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "emu/data_plane_pool.hh"

namespace hyperplane {
namespace emu {
namespace {

using namespace std::chrono_literals;

TEST(DataPlanePool, ProcessesEverythingAcrossWorkers)
{
    EmuHyperPlane hp(8);
    std::vector<QueueId> qids;
    for (int i = 0; i < 8; ++i)
        qids.push_back(*hp.addQueue());

    std::atomic<std::uint64_t> handled{0};
    DataPlanePool pool(hp, 3,
                       [&](QueueId, std::uint64_t n) { handled += n; });
    pool.start();
    EXPECT_TRUE(pool.running());
    EXPECT_EQ(pool.workers(), 3u);

    constexpr std::uint64_t perQueue = 3000;
    for (std::uint64_t i = 0; i < perQueue; ++i)
        for (QueueId q : qids)
            hp.ring(q);

    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (handled < perQueue * qids.size() &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(1ms);
    }
    pool.stop();
    EXPECT_EQ(handled.load(), perQueue * qids.size());
    EXPECT_EQ(pool.processed(), perQueue * qids.size());
    for (QueueId q : qids)
        EXPECT_EQ(hp.pendingItems(q), 0u);
}

TEST(DataPlanePool, StopIsPromptAndIdempotent)
{
    EmuHyperPlane hp(2);
    hp.addQueue();
    DataPlanePool pool(hp, 2, [](QueueId, std::uint64_t) {});
    pool.start();
    std::this_thread::sleep_for(10ms);
    const auto t0 = std::chrono::steady_clock::now();
    pool.stop();
    pool.stop();
    EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
    EXPECT_FALSE(pool.running());
}

TEST(DataPlanePool, DestructorStopsWorkers)
{
    EmuHyperPlane hp(2);
    const auto q = hp.addQueue();
    {
        DataPlanePool pool(hp, 1, [](QueueId, std::uint64_t) {});
        pool.start();
        hp.ring(*q);
        std::this_thread::sleep_for(20ms);
    } // must join cleanly here
    SUCCEED();
}

TEST(DataPlanePool, HonorsBatchLimit)
{
    EmuHyperPlane hp(1);
    const auto q = hp.addQueue();
    std::atomic<std::uint64_t> maxSeen{0};
    DataPlanePool pool(
        hp, 1,
        [&](QueueId, std::uint64_t n) {
            std::uint64_t cur = maxSeen.load();
            while (n > cur && !maxSeen.compare_exchange_weak(cur, n)) {
            }
        },
        4);
    hp.ring(*q, 100);
    pool.start();
    const auto deadline = std::chrono::steady_clock::now() + 3s;
    while (pool.processed() < 100 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(1ms);
    }
    pool.stop();
    EXPECT_EQ(pool.processed(), 100u);
    EXPECT_LE(maxSeen.load(), 4u);
}

TEST(DataPlanePool, NoHandlerRunsAfterStopReturns)
{
    EmuHyperPlane hp(2);
    const auto q = hp.addQueue();
    std::atomic<bool> stopped{false};
    std::atomic<bool> ranAfterStop{false};
    DataPlanePool pool(hp, 3, [&](QueueId, std::uint64_t) {
        if (stopped.load())
            ranAfterStop = true;
        std::this_thread::sleep_for(100us);
    });
    pool.start();
    std::thread producer([&] {
        for (int i = 0; i < 2000 && !stopped.load(); ++i) {
            hp.ring(*q);
            std::this_thread::sleep_for(10us);
        }
    });
    std::this_thread::sleep_for(20ms);
    pool.stop();
    stopped.store(true); // workers are joined; nothing may run now
    producer.join();
    std::this_thread::sleep_for(20ms);
    EXPECT_FALSE(ranAfterStop.load());
}

TEST(DataPlanePool, WorkerIndexIdentifiesPoolThreads)
{
    EmuHyperPlane hp(2);
    const auto q = hp.addQueue();
    std::atomic<int> seen{-2};
    DataPlanePool pool(hp, 2, [&](QueueId, std::uint64_t) {
        seen = DataPlanePool::workerIndex();
    });
    pool.start();
    hp.ring(*q);
    const auto deadline = std::chrono::steady_clock::now() + 3s;
    while (seen.load() == -2 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(1ms);
    }
    pool.stop();
    const int idx = seen.load();
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, 2);
    // A non-pool thread (this one) is not a worker.
    EXPECT_EQ(DataPlanePool::workerIndex(), -1);
}

} // namespace
} // namespace emu
} // namespace hyperplane
