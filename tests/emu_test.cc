/**
 * @file
 * Unit and threading tests for the software QWAIT emulation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "emu/emu_hyperplane.hh"
#include "stats/registry.hh"

namespace hyperplane {
namespace emu {
namespace {

using namespace std::chrono_literals;

TEST(EmuHyperPlane, AddAssignsDistinctQids)
{
    EmuHyperPlane hp(8);
    const auto a = hp.addQueue();
    const auto b = hp.addQueue();
    ASSERT_TRUE(a.has_value() && b.has_value());
    EXPECT_NE(*a, *b);
}

TEST(EmuHyperPlane, CapacityExhaustionReported)
{
    EmuHyperPlane hp(2);
    EXPECT_TRUE(hp.addQueue().has_value());
    EXPECT_TRUE(hp.addQueue().has_value());
    EXPECT_FALSE(hp.addQueue().has_value());
}

TEST(EmuHyperPlane, RemoveRecyclesQid)
{
    EmuHyperPlane hp(2);
    const auto a = hp.addQueue();
    hp.addQueue();
    hp.removeQueue(*a);
    const auto c = hp.addQueue();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(*c, *a);
}

TEST(EmuHyperPlane, QwaitTimesOutWhenIdle)
{
    EmuHyperPlane hp(4);
    hp.addQueue();
    EXPECT_FALSE(hp.qwait(10ms).has_value());
}

TEST(EmuHyperPlane, CloseWakesEveryWaiter)
{
    // Parked with no timeout, waiters leave only through a grant or
    // close(): close() must release all of them at once, and every
    // later qwait() returns without parking, even with work pending.
    constexpr int numWaiters = 4;
    EmuHyperPlane hp(4);
    const auto q = hp.addQueue();
    std::atomic<int> released{0};
    std::vector<std::thread> waiters;
    for (int i = 0; i < numWaiters; ++i) {
        waiters.emplace_back([&] {
            if (!hp.qwait(EmuHyperPlane::forever))
                released++;
        });
    }
    std::this_thread::sleep_for(50ms);
    EXPECT_EQ(released.load(), 0);

    const auto t0 = std::chrono::steady_clock::now();
    hp.close();
    for (auto &t : waiters)
        t.join();
    EXPECT_EQ(released.load(), numWaiters);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);

    hp.ring(*q, 1);
    EXPECT_FALSE(hp.qwait(EmuHyperPlane::forever).has_value());
    EXPECT_FALSE(hp.qwait(10s).has_value());
    EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
    EXPECT_EQ(hp.qwaitTimeouts(), 0u);
    EXPECT_EQ(hp.grants(), 0u);
}

TEST(EmuHyperPlane, RingMakesQueueReady)
{
    EmuHyperPlane hp(4);
    const auto q = hp.addQueue();
    hp.ring(*q);
    const auto got = hp.qwait(100ms);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, *q);
    EXPECT_EQ(hp.pendingItems(*q), 1u);
}

TEST(EmuHyperPlane, TakeClaimsUpToAvailable)
{
    EmuHyperPlane hp(4);
    const auto q = hp.addQueue();
    hp.ring(*q, 5);
    EXPECT_EQ(hp.take(*q, 3), 3u);
    EXPECT_EQ(hp.pendingItems(*q), 2u);
    EXPECT_EQ(hp.take(*q, 10), 2u);
    EXPECT_EQ(hp.take(*q, 1), 0u); // spurious grant claims nothing
}

TEST(EmuHyperPlane, TakeReactivatesWhenItemsRemain)
{
    EmuHyperPlane hp(4);
    const auto q = hp.addQueue();
    hp.ring(*q, 3);
    ASSERT_TRUE(hp.qwait(100ms).has_value());
    hp.take(*q, 1);
    // Two remain: the QID must be grantable again without a new ring.
    const auto again = hp.qwaitNonBlocking();
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, *q);
}

TEST(EmuHyperPlane, NonBlockingVariantNeverWaits)
{
    EmuHyperPlane hp(4);
    hp.addQueue();
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(hp.qwaitNonBlocking().has_value());
    EXPECT_LT(std::chrono::steady_clock::now() - t0, 50ms);
}

TEST(EmuHyperPlane, DisableInhibitsGrants)
{
    EmuHyperPlane hp(4);
    const auto q = hp.addQueue();
    hp.ring(*q);
    hp.disable(*q);
    EXPECT_FALSE(hp.qwaitNonBlocking().has_value());
    hp.enable(*q);
    EXPECT_TRUE(hp.qwaitNonBlocking().has_value());
}

TEST(EmuHyperPlane, RoundRobinAcrossQueues)
{
    EmuHyperPlane hp(4);
    const auto a = hp.addQueue();
    const auto b = hp.addQueue();
    hp.ring(*a);
    hp.ring(*b);
    const auto g1 = hp.qwaitNonBlocking();
    const auto g2 = hp.qwaitNonBlocking();
    ASSERT_TRUE(g1.has_value() && g2.has_value());
    EXPECT_NE(*g1, *g2);
}

TEST(EmuHyperPlane, BlockedConsumerWokenByProducerThread)
{
    EmuHyperPlane hp(4);
    const auto q = hp.addQueue();
    std::atomic<bool> got{false};

    std::thread consumer([&] {
        const auto qid = hp.qwait(2s);
        if (qid && *qid == *q && hp.take(*qid) == 1)
            got = true;
    });
    std::this_thread::sleep_for(20ms);
    hp.ring(*q);
    consumer.join();
    EXPECT_TRUE(got);
}

TEST(EmuHyperPlane, ProducerConsumerThroughputStress)
{
    EmuHyperPlane hp(16);
    std::vector<QueueId> qids;
    for (int i = 0; i < 8; ++i)
        qids.push_back(*hp.addQueue());
    constexpr std::uint64_t itemsPerQueue = 2000;
    std::atomic<std::uint64_t> consumed{0};

    std::thread consumer([&] {
        while (consumed < itemsPerQueue * qids.size()) {
            const auto qid = hp.qwait(2s);
            if (!qid)
                break;
            consumed += hp.take(*qid, 64);
        }
    });
    std::thread producer([&] {
        for (std::uint64_t i = 0; i < itemsPerQueue; ++i)
            for (QueueId q : qids)
                hp.ring(q);
    });
    producer.join();
    consumer.join();
    EXPECT_EQ(consumed.load(), itemsPerQueue * qids.size());
    for (QueueId q : qids)
        EXPECT_EQ(hp.pendingItems(q), 0u);
}

TEST(EmuHyperPlane, TargetedWakeupNotifiesOncePerNewlyReadyQueue)
{
    // Park several waiters, ring one queue once: exactly one targeted
    // notify must be issued (no broadcast), and exactly one waiter gets
    // the grant while the rest time out.
    EmuHyperPlane hp(4);
    const auto q = hp.addQueue();
    constexpr int numWaiters = 4;
    std::atomic<int> granted{0};
    std::atomic<int> timedOut{0};

    std::vector<std::thread> waiters;
    for (int i = 0; i < numWaiters; ++i) {
        waiters.emplace_back([&] {
            const auto qid = hp.qwait(500ms);
            if (qid) {
                hp.take(*qid, 1);
                granted++;
            } else {
                timedOut++;
            }
        });
    }
    std::this_thread::sleep_for(50ms);
    hp.ring(*q);
    for (auto &t : waiters)
        t.join();

    EXPECT_EQ(granted.load(), 1);
    EXPECT_EQ(timedOut.load(), numWaiters - 1);
    EXPECT_EQ(hp.wakeups(), 1u);
    EXPECT_EQ(hp.qwaitTimeouts(), static_cast<std::uint64_t>(numWaiters) - 1);
}

TEST(EmuHyperPlane, RepeatRingOfReadyQueueDoesNotRenotify)
{
    // Once a queue is already grantable, further rings add items but
    // must not wake more waiters — the wake-per-transition contract.
    EmuHyperPlane hp(4);
    const auto q = hp.addQueue();
    hp.ring(*q);
    hp.ring(*q);
    hp.ring(*q);
    EXPECT_EQ(hp.pendingItems(*q), 3u);
    EXPECT_EQ(hp.wakeups(), 0u); // no waiter was ever parked
}

TEST(EmuHyperPlane, TakeResidualRenotifiesOneWaiter)
{
    // A partial take leaves the queue ready; a parked waiter must be
    // woken for the residual without a new ring.
    EmuHyperPlane hp(4);
    const auto q = hp.addQueue();
    hp.ring(*q, 8);
    const auto g = hp.qwaitNonBlocking();
    ASSERT_TRUE(g.has_value());

    std::atomic<std::uint64_t> claimed{0};
    std::thread waiter([&] {
        const auto qid = hp.qwait(2s);
        if (qid)
            claimed = hp.take(*qid, 64);
    });
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(hp.take(*g, 3), 3u); // residual 5 -> renotify
    waiter.join();
    EXPECT_EQ(claimed.load(), 5u);
    EXPECT_EQ(hp.pendingItems(*q), 0u);
}

TEST(EmuHyperPlane, SpuriousWakeAccountingUnderContention)
{
    // Hammer one queue with many waiters: every wake either produces a
    // grant or is counted spurious/timeout — nothing is lost.
    EmuHyperPlane hp(8);
    std::vector<QueueId> qids;
    for (int i = 0; i < 4; ++i)
        qids.push_back(*hp.addQueue());
    constexpr std::uint64_t total = 4000;
    std::atomic<std::uint64_t> consumed{0};

    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
        workers.emplace_back([&] {
            while (consumed.load() < total) {
                const auto qid = hp.qwait(100ms);
                if (qid)
                    consumed += hp.take(*qid, 16);
            }
        });
    }
    std::thread producer([&] {
        for (std::uint64_t i = 0; i < total; ++i)
            hp.ring(qids[i % qids.size()]);
    });
    producer.join();
    for (auto &t : workers)
        t.join();

    EXPECT_EQ(consumed.load(), total);
    // Targeted wakeups bound the herd: at most one notify per ring plus
    // one per residual-bearing take — never a broadcast to all waiters.
    EXPECT_LE(hp.wakeups(), 2 * total);
    EXPECT_GE(hp.grants(), total / 16); // every grant claims <= 16
    for (QueueId q : qids)
        EXPECT_EQ(hp.pendingItems(q), 0u);
}

TEST(EmuHyperPlane, EnableWakesWaiterForPendingQueue)
{
    // disable() hides a ready queue; enable() must re-notify a parked
    // waiter (the enable path uses the same targeted wake).
    EmuHyperPlane hp(4);
    const auto q = hp.addQueue();
    hp.ring(*q);
    hp.disable(*q);
    std::atomic<bool> got{false};
    std::thread waiter([&] {
        const auto qid = hp.qwait(2s);
        if (qid && hp.take(*qid, 1) == 1)
            got = true;
    });
    std::this_thread::sleep_for(20ms);
    hp.enable(*q);
    waiter.join();
    EXPECT_TRUE(got.load());
}

TEST(EmuHyperPlane, RegistersWakeCountersInRegistry)
{
    EmuHyperPlane hp(4);
    const auto q = hp.addQueue();
    hp.ring(*q);
    EXPECT_EQ(hp.qwaitNonBlocking(), q);
    hp.take(*q, 1);

    stats::Registry reg;
    hp.registerStats(reg, "dev");
    EXPECT_TRUE(reg.has("dev.grants"));
    EXPECT_TRUE(reg.has("dev.wakeups"));
    EXPECT_TRUE(reg.has("dev.spurious_wakes"));
    EXPECT_TRUE(reg.has("dev.qwait_timeouts"));
    EXPECT_DOUBLE_EQ(reg.value("dev.grants"), 1.0);
}

TEST(EmuHyperPlane, DeferredRingServedByRingerWakesNobody)
{
    // Run to completion: a producer rings with the wake deferred, takes
    // the grant itself, and serves everything it rang.  The parked
    // waiter must sleep through it and time out.
    EmuHyperPlane hp(4);
    const auto q = hp.addQueue();
    std::atomic<bool> granted{false};
    std::thread waiter([&] { granted = hp.qwait(200ms).has_value(); });
    std::this_thread::sleep_for(50ms);

    hp.ring(*q, 4, EmuHyperPlane::Wake::Deferred);
    EXPECT_EQ(hp.wakeups(), 0u);
    const auto g = hp.qwaitNonBlocking();
    ASSERT_EQ(g, q);
    EXPECT_EQ(hp.take(*g, 16), 4u);
    EXPECT_FALSE(hp.wakeOneIfGrantable());
    waiter.join();

    EXPECT_FALSE(granted.load());
    EXPECT_EQ(hp.wakeups(), 0u);
    EXPECT_EQ(hp.qwaitTimeouts(), 1u);
}

TEST(EmuHyperPlane, DeferredRingLeftoverWakesExactlyOneWaiter)
{
    // Whatever the ringer's own grant leaves behind wakes exactly one
    // of two parked waiters: a second rung queue through
    // wakeOneIfGrantable(), a residual in the granted queue through
    // take()'s RECONSIDER (and then wakeOneIfGrantable() adds nothing).
    for (const bool residual : {false, true}) {
        SCOPED_TRACE(residual ? "residual in the granted queue"
                              : "second rung queue");
        EmuHyperPlane hp(4);
        const auto a = hp.addQueue();
        const auto b = hp.addQueue();
        std::atomic<std::uint64_t> claimed{0};
        std::atomic<int> timedOut{0};
        std::vector<std::thread> waiters;
        for (int i = 0; i < 2; ++i) {
            waiters.emplace_back([&] {
                if (const auto qid = hp.qwait(300ms))
                    claimed += hp.take(*qid, 16);
                else
                    timedOut++;
            });
        }
        std::this_thread::sleep_for(50ms);

        if (residual) {
            hp.ring(*a, 20, EmuHyperPlane::Wake::Deferred);
        } else {
            hp.ring(*a, 4, EmuHyperPlane::Wake::Deferred);
            hp.ring(*b, 4, EmuHyperPlane::Wake::Deferred);
        }
        EXPECT_EQ(hp.wakeups(), 0u);
        const auto g = hp.qwaitNonBlocking();
        ASSERT_EQ(g, a);
        EXPECT_EQ(hp.take(*g, 16), residual ? 16u : 4u);
        EXPECT_EQ(hp.wakeOneIfGrantable(), !residual);
        for (auto &t : waiters)
            t.join();

        EXPECT_EQ(claimed.load(), 4u);
        EXPECT_EQ(timedOut.load(), 1);
        EXPECT_EQ(hp.wakeups(), 1u);
        EXPECT_EQ(hp.pendingItems(*a) + hp.pendingItems(*b), 0u);
    }
}

TEST(EmuHyperPlane, WeightedPolicyFavorsHeavyQueue)
{
    EmuHyperPlane hp(4, core::ServicePolicy::WeightedRoundRobin);
    const auto a = hp.addQueue();
    const auto b = hp.addQueue();
    hp.setWeight(*a, 3);
    int grantsA = 0, grantsB = 0;
    for (int i = 0; i < 200; ++i) {
        hp.ring(*a);
        hp.ring(*b);
        const auto g = hp.qwaitNonBlocking();
        ASSERT_TRUE(g.has_value());
        (*g == *a ? grantsA : grantsB)++;
        hp.take(*g, 10); // drain
    }
    EXPECT_GT(grantsA, 2 * grantsB);
}

} // namespace
} // namespace emu
} // namespace hyperplane
