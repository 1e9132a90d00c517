#include "fault/watchdog.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hyperplane {
namespace fault {

Watchdog::Watchdog(EventQueue &eq, queueing::QueueSet &queues,
                   std::vector<WatchdogCluster> clusters,
                   FaultInjector *injector, const RecoveryConfig &cfg)
    : eq_(eq), queues_(queues), clusters_(std::move(clusters)),
      injector_(injector), cfg_(cfg),
      periodTicks_(std::max<Tick>(1, usToTicks(cfg.watchdogPeriodUs)))
{
}

void
Watchdog::start()
{
    if (running_)
        return;
    running_ = true;
    scheduleNext();
}

void
Watchdog::stop()
{
    running_ = false;
}

void
Watchdog::scheduleNext()
{
    eq_.scheduleIn(periodTicks_, [this] {
        if (!running_)
            return;
        sweepOnce();
        scheduleNext();
    });
}

void
Watchdog::sweepOnce()
{
    sweeps.inc();
    if (tracer_) {
        tracer_->stamp(0, trace::Stage::WatchdogSweep,
                       trace::Phase::Instant, trace::trackWatchdog,
                       eq_.now());
    }
    for (auto &c : clusters_)
        sweepCluster(c);
}

void
Watchdog::sweepCluster(WatchdogCluster &c)
{
    hp_assert(c.unit != nullptr, "watchdog cluster without a unit");

    if (cfg_.watchdog) {
        // 1. Lost-notification scan: an armed entry whose doorbell
        //    already advertises work missed its snoop.  Replay the
        //    activation (QWAIT-VERIFY semantics).
        for (QueueId qid : c.qids) {
            if (c.fallback != nullptr && c.fallback->contains(qid))
                continue; // software-polled; cannot lose notifications
            if (!c.unit->watchdogVerify(qid, queues_[qid].doorbell()))
                continue;
            if (tracer_) {
                tracer_->stamp(0, trace::Stage::WatchdogRecovery,
                               trace::Phase::Instant, trace::trackWatchdog,
                               eq_.now(), qid);
            }
            if (injector_ == nullptr ||
                injector_->recordWatchdogRecovery(qid)) {
                recoveries.inc();
            } else {
                // Not in the lost ledger: a delayed snoop is still in
                // flight and the sweep beat it to the activation.
                earlyRecoveries.inc();
            }
        }
    }

    // 2. Promotion retries: capacity may have freed since demotion.
    if (c.fallback != nullptr && !c.fallback->empty()) {
        const std::vector<QueueId> demoted = c.fallback->queues();
        for (QueueId qid : demoted) {
            if (c.unit->qwaitAdd(qid, queues_[qid].doorbellAddr()) !=
                core::AddResult::Ok) {
                continue;
            }
            c.fallback->remove(qid);
            promotions.inc();
            if (tracer_) {
                tracer_->stamp(0, trace::Stage::Promotion,
                               trace::Phase::Instant, trace::trackWatchdog,
                               eq_.now(), qid);
            }
            // Items enqueued while demoted predate the fresh armed
            // entry; audit once so they are not orphaned.
            c.unit->watchdogVerify(qid, queues_[qid].doorbell());
        }
    }

    // 3. Wake re-fire: ready work but every core asleep means a wake
    //    callback was lost (e.g. injected suppression).  Runs in every
    //    sweep — it only acts when a wake has demonstrably gone
    //    missing, so it is pure recovery.
    if (c.unit->readySet().anyReady() && c.deliverWake &&
        c.deliverWake()) {
        wakeRefires.inc();
        if (tracer_) {
            tracer_->stamp(0, trace::Stage::WakeRefire,
                           trace::Phase::Instant, trace::trackWatchdog,
                           eq_.now());
        }
    }
}

} // namespace fault
} // namespace hyperplane
