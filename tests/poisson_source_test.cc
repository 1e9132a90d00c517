/**
 * @file
 * Unit tests for the Poisson traffic source.
 */

#include <gtest/gtest.h>

#include "sim/event_queue.hh"
#include "traffic/poisson_source.hh"

namespace hyperplane {
namespace traffic {
namespace {

TEST(PoissonSource, GeneratesApproximatelyTheOfferedRate)
{
    EventQueue eq;
    queueing::QueueSet queues(10);
    SourceConfig cfg;
    cfg.totalRatePerSec = 1e6;
    std::vector<double> weights(10, 0.1);
    PoissonSource src(eq, queues, nullptr, cfg, weights);
    src.start();
    eq.run(usToTicks(20000.0)); // 20 ms
    const double expect = 1e6 * 0.020;
    EXPECT_NEAR(static_cast<double>(src.generated()), expect,
                expect * 0.1);
}

TEST(PoissonSource, RespectsWeights)
{
    EventQueue eq;
    queueing::QueueSet queues(2);
    SourceConfig cfg;
    cfg.totalRatePerSec = 1e6;
    cfg.maxQueueDepth = 1u << 20;
    std::vector<double> weights{0.8, 0.2};
    PoissonSource src(eq, queues, nullptr, cfg, weights);
    src.start();
    eq.run(usToTicks(20000.0));
    const double ratio =
        static_cast<double>(queues[0].totalEnqueued()) /
        static_cast<double>(queues[1].totalEnqueued());
    EXPECT_NEAR(ratio, 4.0, 0.6);
}

TEST(PoissonSource, InactiveQueuesGetNothing)
{
    EventQueue eq;
    queueing::QueueSet queues(4);
    SourceConfig cfg;
    cfg.totalRatePerSec = 1e5;
    std::vector<double> weights{1.0, 0.0, 0.0, 0.0};
    PoissonSource src(eq, queues, nullptr, cfg, weights);
    src.start();
    eq.run(usToTicks(10000.0));
    EXPECT_GT(queues[0].totalEnqueued(), 0u);
    EXPECT_EQ(queues[1].totalEnqueued(), 0u);
    EXPECT_EQ(queues[2].totalEnqueued(), 0u);
}

TEST(PoissonSource, DropsWhenQueueFull)
{
    EventQueue eq;
    queueing::QueueSet queues(1);
    SourceConfig cfg;
    cfg.totalRatePerSec = 1e6;
    cfg.maxQueueDepth = 4; // nobody consumes
    PoissonSource src(eq, queues, nullptr, cfg, {1.0});
    src.start();
    eq.run(usToTicks(1000.0));
    EXPECT_EQ(queues[0].depth(), 4u);
    EXPECT_GT(src.dropped(), 0u);
}

TEST(PoissonSource, ArrivalHookSeesEveryAcceptedItem)
{
    EventQueue eq;
    queueing::QueueSet queues(2);
    SourceConfig cfg;
    cfg.totalRatePerSec = 1e5;
    PoissonSource src(eq, queues, nullptr, cfg, {0.5, 0.5});
    std::uint64_t hooked = 0;
    src.setArrivalHook([&](QueueId, const queueing::WorkItem &item) {
        EXPECT_EQ(item.payloadBytes, cfg.payloadBytes);
        ++hooked;
    });
    src.start();
    eq.run(usToTicks(5000.0));
    EXPECT_EQ(hooked, src.generated());
}

TEST(PoissonSource, ItemsCarryMonotonicSeqAndArrivalTick)
{
    EventQueue eq;
    queueing::QueueSet queues(1);
    SourceConfig cfg;
    cfg.totalRatePerSec = 1e5;
    PoissonSource src(eq, queues, nullptr, cfg, {1.0});
    std::uint64_t lastSeq = 0;
    Tick lastTick = 0;
    bool monotone = true;
    src.setArrivalHook([&](QueueId, const queueing::WorkItem &item) {
        if (item.seq < lastSeq || item.arrivalTick < lastTick)
            monotone = false;
        lastSeq = item.seq;
        lastTick = item.arrivalTick;
    });
    src.start();
    eq.run(usToTicks(5000.0));
    EXPECT_TRUE(monotone);
}

TEST(PoissonSource, StopCancelsFutureArrivals)
{
    EventQueue eq;
    queueing::QueueSet queues(1);
    SourceConfig cfg;
    cfg.totalRatePerSec = 1e5;
    PoissonSource src(eq, queues, nullptr, cfg, {1.0});
    src.start();
    eq.run(usToTicks(1000.0));
    const auto before = src.generated();
    src.stop();
    eq.run(usToTicks(5000.0));
    EXPECT_EQ(src.generated(), before);
    EXPECT_TRUE(eq.empty());
}

TEST(PoissonSource, DeviceWritesReachMemorySystem)
{
    EventQueue eq;
    queueing::QueueSet queues(1);
    mem::MemorySystem mem(1, mem::CacheGeometry{32 * 1024, 4, 64},
                          mem::CacheGeometry{1024 * 1024, 16, 64});
    SourceConfig cfg;
    cfg.totalRatePerSec = 1e5;
    PoissonSource src(eq, queues, &mem, cfg, {1.0});
    src.start();
    eq.run(usToTicks(2000.0));
    EXPECT_EQ(mem.writeTransactions.value(), src.generated());
}

} // namespace
} // namespace traffic
} // namespace hyperplane
