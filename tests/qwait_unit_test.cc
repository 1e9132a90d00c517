/**
 * @file
 * Unit tests for the QwaitUnit: the full Algorithm 1 semantics.
 */

#include <gtest/gtest.h>

#include "core/qwait_unit.hh"
#include "queueing/doorbell.hh"

namespace hyperplane {
namespace core {
namespace {

using queueing::AddressMap;
using queueing::Doorbell;

QwaitConfig
smallConfig()
{
    QwaitConfig cfg;
    cfg.ready.capacity = 64;
    return cfg;
}

TEST(QwaitUnit, AddBindsDoorbellToQid)
{
    QwaitUnit unit(smallConfig());
    EXPECT_EQ(unit.qwaitAdd(3, AddressMap::doorbellAddr(3)),
              AddResult::Ok);
    const auto addr = unit.doorbellOf(3);
    ASSERT_TRUE(addr.has_value());
    EXPECT_EQ(*addr, AddressMap::doorbellAddr(3));
}

TEST(QwaitUnit, AddRejectsDuplicateQid)
{
    QwaitUnit unit(smallConfig());
    EXPECT_EQ(unit.qwaitAdd(3, AddressMap::doorbellAddr(3)),
              AddResult::Ok);
    EXPECT_EQ(unit.qwaitAdd(3, AddressMap::doorbellAddr(4)),
              AddResult::DuplicateQid);
    // Same doorbell from a different queue is an address duplicate.
    EXPECT_EQ(unit.qwaitAdd(4, AddressMap::doorbellAddr(3)),
              AddResult::DuplicateAddr);
}

TEST(QwaitUnit, RemoveUnbinds)
{
    QwaitUnit unit(smallConfig());
    unit.qwaitAdd(3, AddressMap::doorbellAddr(3));
    EXPECT_TRUE(unit.qwaitRemove(3));
    EXPECT_FALSE(unit.doorbellOf(3).has_value());
    EXPECT_FALSE(unit.qwaitRemove(3));
    // Rebinding after removal works.
    EXPECT_EQ(unit.qwaitAdd(3, AddressMap::doorbellAddr(3)),
              AddResult::Ok);
}

TEST(QwaitUnit, QwaitBlocksWhenNoQueueReady)
{
    QwaitUnit unit(smallConfig());
    unit.qwaitAdd(0, AddressMap::doorbellAddr(0));
    EXPECT_FALSE(unit.qwait().has_value());
    EXPECT_EQ(unit.qwaitBlocked.value(), 1u);
}

TEST(QwaitUnit, WriteTransactionMakesQueueReady)
{
    QwaitUnit unit(smallConfig());
    unit.qwaitAdd(7, AddressMap::doorbellAddr(7));
    unit.onWriteTransaction(AddressMap::doorbellAddr(7), 0);
    const auto qid = unit.qwait();
    ASSERT_TRUE(qid.has_value());
    EXPECT_EQ(*qid, 7u);
}

TEST(QwaitUnit, WakeCallbackFiresOnActivation)
{
    QwaitUnit unit(smallConfig());
    unit.qwaitAdd(1, AddressMap::doorbellAddr(1));
    int wakes = 0;
    unit.setWakeCallback([&] { ++wakes; });
    unit.onWriteTransaction(AddressMap::doorbellAddr(1), 0);
    EXPECT_EQ(wakes, 1);
    // Disarmed entry: another write does not re-activate or wake.
    unit.onWriteTransaction(AddressMap::doorbellAddr(1), 0);
    EXPECT_EQ(wakes, 1);
}

TEST(QwaitUnit, VerifyFiltersSpuriousWakeup)
{
    QwaitUnit unit(smallConfig());
    unit.qwaitAdd(2, AddressMap::doorbellAddr(2));
    Doorbell db(AddressMap::doorbellAddr(2)); // empty: count == 0
    // A spurious write (e.g. false sharing) activated the queue.
    unit.onWriteTransaction(AddressMap::doorbellAddr(2), 0);
    const auto qid = unit.qwait();
    ASSERT_TRUE(qid.has_value());
    EXPECT_FALSE(unit.qwaitVerify(*qid, db));
    EXPECT_EQ(unit.spuriousWakeups.value(), 1u);
    // VERIFY re-armed the entry: a real arrival is caught again.
    db.increment();
    unit.onWriteTransaction(AddressMap::doorbellAddr(2), 0);
    const auto again = unit.qwait();
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(unit.qwaitVerify(*again, db));
}

TEST(QwaitUnit, ReconsiderRearmsEmptyQueue)
{
    QwaitUnit unit(smallConfig());
    unit.qwaitAdd(4, AddressMap::doorbellAddr(4));
    Doorbell db(AddressMap::doorbellAddr(4));

    db.increment();
    unit.onWriteTransaction(AddressMap::doorbellAddr(4), 0);
    const auto qid = unit.qwait();
    ASSERT_TRUE(qid.has_value());
    EXPECT_TRUE(unit.qwaitVerify(*qid, db));
    db.decrement(); // dequeue the single item
    unit.qwaitReconsider(*qid, db);
    // Queue empty: re-armed in the monitoring set, not the ready set.
    EXPECT_FALSE(unit.qwait().has_value());
    EXPECT_TRUE(unit.monitoringSet().isArmed(db.addr()));
}

TEST(QwaitUnit, ReconsiderReactivatesNonEmptyQueue)
{
    QwaitUnit unit(smallConfig());
    unit.qwaitAdd(4, AddressMap::doorbellAddr(4));
    Doorbell db(AddressMap::doorbellAddr(4));

    db.increment(3); // burst of three items, one doorbell write seen
    unit.onWriteTransaction(AddressMap::doorbellAddr(4), 0);
    auto qid = unit.qwait();
    ASSERT_TRUE(qid.has_value());
    db.decrement();
    unit.qwaitReconsider(*qid, db);
    // Two items remain: the QID must come back from the ready set
    // without any further doorbell write.
    qid = unit.qwait();
    ASSERT_TRUE(qid.has_value());
    EXPECT_EQ(*qid, 4u);
}

TEST(QwaitUnit, NoMissedWakeupAcrossReconsiderWindow)
{
    // The race Section III-B worries about: the queue drains, and a new
    // item arrives "concurrently" with RECONSIDER.  Whichever order the
    // atomic operations resolve in, the wakeup must not be lost.
    QwaitUnit unit(smallConfig());
    unit.qwaitAdd(9, AddressMap::doorbellAddr(9));
    Doorbell db(AddressMap::doorbellAddr(9));

    db.increment();
    unit.onWriteTransaction(AddressMap::doorbellAddr(9), 0);
    auto qid = unit.qwait();
    ASSERT_TRUE(qid.has_value());
    db.decrement();
    // Order A: reconsider first (re-arms), then the arrival writes.
    unit.qwaitReconsider(*qid, db);
    db.increment();
    unit.onWriteTransaction(AddressMap::doorbellAddr(9), 0);
    qid = unit.qwait();
    ASSERT_TRUE(qid.has_value());
    EXPECT_EQ(*qid, 9u);

    db.decrement();
    unit.qwaitReconsider(*qid, db);
    // Order B: the arrival lands before reconsider runs.
    db.increment();
    unit.onWriteTransaction(AddressMap::doorbellAddr(9), 0);
    qid = unit.qwait();
    ASSERT_TRUE(qid.has_value());
    db.decrement();
    unit.qwaitReconsider(*qid, db);
    EXPECT_FALSE(unit.qwait().has_value()); // and no double grant
}

TEST(QwaitUnit, ConsumerDecrementDoesNotTriggerWakeup)
{
    // The dequeue's doorbell decrement is a write transaction too, but
    // the entry is disarmed during the dequeue (memory-barrier ordering
    // of RECONSIDER), so no spurious QID results.
    QwaitUnit unit(smallConfig());
    unit.qwaitAdd(5, AddressMap::doorbellAddr(5));
    Doorbell db(AddressMap::doorbellAddr(5));
    db.increment();
    unit.onWriteTransaction(AddressMap::doorbellAddr(5), 0);
    auto qid = unit.qwait();
    ASSERT_TRUE(qid.has_value());
    EXPECT_TRUE(unit.qwaitVerify(*qid, db));
    db.decrement();
    // The decrement's coherence transaction arrives at the (disarmed)
    // monitoring set before RECONSIDER re-arms:
    unit.onWriteTransaction(AddressMap::doorbellAddr(5), 0);
    unit.qwaitReconsider(*qid, db);
    EXPECT_FALSE(unit.qwait().has_value());
}

TEST(QwaitUnit, EnableDisableGateGrants)
{
    QwaitUnit unit(smallConfig());
    unit.qwaitAdd(6, AddressMap::doorbellAddr(6));
    unit.onWriteTransaction(AddressMap::doorbellAddr(6), 0);
    unit.qwaitDisable(6);
    EXPECT_FALSE(unit.qwait().has_value());
    unit.qwaitEnable(6);
    const auto qid = unit.qwait();
    ASSERT_TRUE(qid.has_value());
    EXPECT_EQ(*qid, 6u);
}

TEST(QwaitUnit, EnableOfReadyQueueFiresWakeCallback)
{
    // A queue ringing while disabled must wake a halted core the
    // moment it is re-enabled, not at the next unrelated arrival.
    QwaitUnit unit(smallConfig());
    unit.qwaitAdd(6, AddressMap::doorbellAddr(6));
    unit.qwaitDisable(6);
    int wakes = 0;
    unit.setWakeCallback([&] { ++wakes; });
    unit.onWriteTransaction(AddressMap::doorbellAddr(6), 0);
    EXPECT_EQ(wakes, 1); // activation itself fires (core will re-block)
    EXPECT_FALSE(unit.qwait().has_value());
    unit.qwaitEnable(6);
    EXPECT_EQ(wakes, 2); // re-enable re-fires for the pending QID
    EXPECT_EQ(*unit.qwait(), 6u);
    // Enabling an idle queue fires nothing.
    unit.qwaitDisable(6);
    unit.qwaitEnable(6);
    EXPECT_EQ(wakes, 2);
}

TEST(QwaitUnit, PolicyOrderAppliedAcrossQueues)
{
    QwaitConfig cfg = smallConfig();
    cfg.ready.policy = ServicePolicy::StrictPriority;
    QwaitUnit unit(cfg);
    for (QueueId q : {10u, 20u, 30u})
        unit.qwaitAdd(q, AddressMap::doorbellAddr(q));
    for (QueueId q : {30u, 10u, 20u})
        unit.onWriteTransaction(AddressMap::doorbellAddr(q), 0);
    EXPECT_EQ(*unit.qwait(), 10u);
    EXPECT_EQ(*unit.qwait(), 20u);
    EXPECT_EQ(*unit.qwait(), 30u);
}

TEST(QwaitUnit, InjectedSpuriousActivationCountsAsSpuriousWakeup)
{
    QwaitUnit unit(smallConfig());
    EXPECT_EQ(unit.qwaitAdd(8, AddressMap::doorbellAddr(8)),
              AddResult::Ok);
    Doorbell db(AddressMap::doorbellAddr(8)); // empty
    int wakes = 0;
    unit.setWakeCallback([&] { ++wakes; });
    unit.injectSpuriousActivation(8);
    EXPECT_EQ(wakes, 1); // the fault wakes a core...
    const auto qid = unit.qwait();
    ASSERT_TRUE(qid.has_value());
    // ...and VERIFY filters it, charging the spurious-wakeup counter.
    EXPECT_FALSE(unit.qwaitVerify(*qid, db));
    EXPECT_EQ(unit.spuriousWakeups.value(), 1u);
    // The filtered grant must not resurface without a new write.
    EXPECT_FALSE(unit.qwait().has_value());
}

TEST(QwaitUnit, WatchdogVerifyRescuesArmedNonEmptyQueue)
{
    QwaitUnit unit(smallConfig());
    EXPECT_EQ(unit.qwaitAdd(11, AddressMap::doorbellAddr(11)),
              AddResult::Ok);
    Doorbell db(AddressMap::doorbellAddr(11));
    int wakes = 0;
    unit.setWakeCallback([&] { ++wakes; });

    // Healthy states are left alone: empty doorbell...
    EXPECT_FALSE(unit.watchdogVerify(11, db));
    // ...unbound queue...
    EXPECT_FALSE(unit.watchdogVerify(12, db));
    EXPECT_EQ(wakes, 0);

    // The lost-notification state: producer enqueued (doorbell rung)
    // but the snoop never arrived, so the entry is still armed.
    db.increment();
    EXPECT_TRUE(unit.watchdogVerify(11, db));
    EXPECT_EQ(wakes, 1);

    // Already-ready queues are not double-activated.
    EXPECT_FALSE(unit.watchdogVerify(11, db));
    EXPECT_EQ(wakes, 1);
    EXPECT_EQ(*unit.qwait(), 11u);
}

TEST(QwaitUnit, WatchdogVerifyIsIdempotentWithLateSnoop)
{
    // A delayed snoop that finally lands after the watchdog already
    // rescued the queue must not produce a second grant: the rescue
    // disarmed the entry, so the late write is absorbed.
    QwaitUnit unit(smallConfig());
    EXPECT_EQ(unit.qwaitAdd(13, AddressMap::doorbellAddr(13)),
              AddResult::Ok);
    Doorbell db(AddressMap::doorbellAddr(13));
    db.increment();
    EXPECT_TRUE(unit.watchdogVerify(13, db));
    unit.onWriteTransaction(AddressMap::doorbellAddr(13), 0); // late
    EXPECT_EQ(*unit.qwait(), 13u);
    EXPECT_FALSE(unit.qwait().has_value()); // exactly one grant
}

TEST(QwaitUnit, QwaitLatencyFromConfig)
{
    QwaitConfig cfg = smallConfig();
    cfg.qwaitLatency = 75;
    QwaitUnit unit(cfg);
    EXPECT_EQ(unit.qwaitLatency(), 75u);
}

} // namespace
} // namespace core
} // namespace hyperplane
