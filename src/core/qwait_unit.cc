#include "core/qwait_unit.hh"

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace hyperplane {
namespace core {

QwaitUnit::QwaitUnit(const QwaitConfig &cfg)
    : cfg_(cfg), monitoring_(cfg.monitoring), readySet_(cfg.ready)
{
}

const char *
toString(AddResult r)
{
    switch (r) {
      case AddResult::Ok:
        return "ok";
      case AddResult::Conflict:
        return "conflict";
      case AddResult::DuplicateAddr:
        return "duplicate-addr";
      case AddResult::DuplicateQid:
        return "duplicate-qid";
    }
    return "?";
}

AddResult
QwaitUnit::qwaitAdd(QueueId qid, Addr doorbell)
{
    hp_assert(qid < readySet_.capacity(),
              "qid %u exceeds ready set capacity %u", qid,
              readySet_.capacity());
    if (doorbellByQid_.count(qid) != 0)
        return AddResult::DuplicateQid;
    switch (monitoring_.insert(doorbell, qid)) {
      case MonitoringSet::InsertResult::Duplicate:
        return AddResult::DuplicateAddr;
      case MonitoringSet::InsertResult::Conflict:
        return AddResult::Conflict;
      case MonitoringSet::InsertResult::Ok:
        break;
    }
    doorbellByQid_.emplace(qid, lineBase(doorbell));
    return AddResult::Ok;
}

bool
QwaitUnit::qwaitRemove(QueueId qid)
{
    auto it = doorbellByQid_.find(qid);
    if (it == doorbellByQid_.end())
        return false;
    monitoring_.remove(it->second);
    readySet_.deactivate(qid);
    doorbellByQid_.erase(it);
    return true;
}

std::optional<Addr>
QwaitUnit::doorbellOf(QueueId qid) const
{
    auto it = doorbellByQid_.find(qid);
    if (it == doorbellByQid_.end())
        return std::nullopt;
    return it->second;
}

std::optional<QueueId>
QwaitUnit::qwait()
{
    qwaitCalls.inc();
    auto qid = readySet_.selectNext();
    if (!qid)
        qwaitBlocked.inc();
    return qid;
}

bool
QwaitUnit::qwaitVerify(QueueId qid, const queueing::Doorbell &doorbell)
{
    // Atomic: test-empty + conditional re-arm, with no window in which
    // an arrival could be missed (arrivals after the re-arm raise a new
    // write transaction the armed entry will catch).
    if (doorbell.empty()) {
        monitoring_.arm(doorbell.addr());
        spuriousWakeups.inc();
        if (tracer_) {
            tracer_->stamp(0, trace::Stage::SpuriousWake,
                           trace::Phase::Instant, track_, clock_->now(),
                           qid);
        }
        return false;
    }
    return true;
}

void
QwaitUnit::qwaitReconsider(QueueId qid, const queueing::Doorbell &doorbell)
{
    if (doorbell.empty()) {
        monitoring_.arm(doorbell.addr());
    } else {
        readySet_.activate(qid);
        if (wakeCallback_)
            wakeCallback_();
    }
}

void
QwaitUnit::qwaitEnable(QueueId qid)
{
    readySet_.enable(qid);
    if (readySet_.isReady(qid) && wakeCallback_)
        wakeCallback_();
}

bool
QwaitUnit::watchdogVerify(QueueId qid, const queueing::Doorbell &doorbell)
{
    auto it = doorbellByQid_.find(qid);
    if (it == doorbellByQid_.end())
        return false; // not bound (e.g. demoted to software polling)
    if (doorbell.empty() || !monitoring_.isArmed(it->second) ||
        readySet_.isReady(qid)) {
        return false; // healthy
    }
    // Armed entry + nonempty doorbell + not ready: the write transaction
    // never arrived.  Replay exactly what the snoop would have done; a
    // late (delayed) snoop now finds the entry disarmed and no-ops, so
    // recovery is idempotent.
    monitoring_.disarm(it->second);
    readySet_.activate(qid);
    if (activationHook_)
        activationHook_(qid);
    if (wakeCallback_)
        wakeCallback_();
    return true;
}

void
QwaitUnit::injectSpuriousActivation(QueueId qid)
{
    readySet_.activate(qid);
    if (activationHook_)
        activationHook_(qid);
    if (wakeCallback_)
        wakeCallback_();
}

void
QwaitUnit::onWriteTransaction(Addr line, CoreId writer)
{
    (void)writer;
    if (auto qid = monitoring_.onWriteTransaction(line)) {
        readySet_.activate(*qid);
        if (activationHook_)
            activationHook_(*qid);
        // Fired on every activation: the system wakes (at most) one
        // halted core per ready-queue arrival.
        if (wakeCallback_)
            wakeCallback_();
    }
}

} // namespace core
} // namespace hyperplane
