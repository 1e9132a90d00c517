#include "dp/hyperplane_core.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hyperplane {
namespace dp {

namespace {

/** Instructions the QWAIT / VERIFY / RECONSIDER sequences retire. */
constexpr unsigned qwaitInstr = 8;
constexpr unsigned verifyInstr = 10;
constexpr unsigned reconsiderInstr = 10;

} // namespace

HyperPlaneCore::HyperPlaneCore(CoreId id, EventQueue &eq,
                               mem::MemorySystem &mem,
                               queueing::QueueSet &queues,
                               workloads::Workload &workload,
                               const CoreTimingParams &params,
                               ServiceJitter jitter, std::uint64_t seed,
                               core::QwaitUnit &qwait, bool powerOptimized,
                               Tick c1WakeLatency, unsigned batchSize)
    : DataPlaneCore(id, eq, mem, queues, workload, params, jitter, seed),
      qwait_(qwait), powerOpt_(powerOptimized),
      c1WakeLatency_(c1WakeLatency), batch_(batchSize ? batchSize : 1)
{
}

void
HyperPlaneCore::start()
{
    running_ = true;
    halted_ = false;
    ++pollEpoch_; // void poll timers left over from a previous run
    freeAt_ = eq_.now();
    lastFallbackSweep_ = freeAt_;
    eq_.schedule(freeAt_, [this] { step(); });
}

void
HyperPlaneCore::stop()
{
    DataPlaneCore::stop();
}

void
HyperPlaneCore::resetStats()
{
    DataPlaneCore::resetStats();
    // A halt in progress restarts its accounting at the boundary.
    if (halted_)
        haltStart_ = eq_.now();
}

Tick
HyperPlaneCore::qwaitCost() const
{
    return qwait_.qwaitLatency();
}

void
HyperPlaneCore::setStealTargets(std::vector<core::QwaitUnit *> targets,
                                Tick extraCycles)
{
    stealTargets_ = std::move(targets);
    stealExtraCycles_ = extraCycles;
}

void
HyperPlaneCore::setBackgroundTask(Tick quantumCycles, double ipc)
{
    backgroundQuantum_ = quantumCycles;
    backgroundIpc_ = ipc;
}

void
HyperPlaneCore::setFallback(fault::FallbackSet *fallback, Tick pollPeriod)
{
    fallback_ = fallback;
    fallbackPollPeriod_ = std::max<Tick>(1, pollPeriod);
}

unsigned
HyperPlaneCore::sweepFallback()
{
    if (fallback_ == nullptr || fallback_->empty())
        return 0;
    fallback_->polls.inc();
    unsigned served = 0;
    // Iterate a snapshot so servicing is insensitive to membership
    // changes the watchdog makes between events.
    const std::vector<QueueId> members = fallback_->queues();
    for (QueueId qid : members) {
        queueing::TaskQueue &q = queues_[qid];
        // Software poll: tight-loop sweep check + doorbell read (the
        // demoted set is small, so the loop stays branch-predicted).
        Tick cost = params_.tightLoopCycles;
        cost += mem_.read(id_, q.doorbellAddr()).latency;
        const bool hasWork = !q.doorbell().empty();
        chargeActive(cost, params_.tightLoopInstr, hasWork);
        freeAt_ += cost;
        ++activity_.polls;
        if (!hasWork) {
            ++activity_.emptyPolls;
            continue;
        }
        for (unsigned b = 0; b < batch_; ++b) {
            Tick dcost = params_.dequeueCycles;
            dcost += mem_.atomicRmw(id_, q.doorbellAddr()).latency;
            dcost += mem_.read(id_, q.descriptorAddr()).latency;
            auto item = q.dequeue();
            chargeActive(dcost, params_.dequeueInstr, item.has_value());
            freeAt_ += dcost;
            if (!item)
                break;
            if (tracer_) {
                tracer_->stamp(0, trace::Stage::FallbackServe,
                               trace::Phase::Instant, id_, freeAt_, qid,
                               item->seq);
            }
            freeAt_ += processItem(*item);
            ++served;
            ++fallbackServed_;
            fallback_->tasksServed.inc();
            if (q.empty())
                break;
        }
    }
    lastFallbackSweep_ = freeAt_;
    return served;
}

void
HyperPlaneCore::haltWithPollTimeout()
{
    halted_ = true;
    haltStart_ = freeAt_;
    traceHaltBegin(freeAt_);
    // Bounded halt: a doorbell wake may arrive first; otherwise the
    // poll timer re-runs the loop.  The epoch guard voids this timer if
    // a wake (or a newer halt) supersedes it.
    const std::uint64_t epoch = ++pollEpoch_;
    eq_.schedule(freeAt_ + fallbackPollPeriod_, [this, epoch] {
        if (!running_ || !halted_ || epoch != pollEpoch_)
            return;
        halted_ = false;
        traceHaltEnd(eq_.now());
        accountHalt(eq_.now());
        freeAt_ = eq_.now() + (powerOpt_ ? c1WakeLatency_ : 0);
        eq_.schedule(freeAt_, [this] { step(); });
    });
}

std::optional<std::pair<QueueId, core::QwaitUnit *>>
HyperPlaneCore::qwaitAll()
{
    const Tick qcost = qwaitCost();
    if (auto qid = qwait_.qwait()) {
        chargeActive(qcost, qwaitInstr, true);
        freeAt_ += qcost;
        return std::make_pair(*qid, &qwait_);
    }
    chargeActive(qcost, qwaitInstr, false);
    freeAt_ += qcost;
    // Local ready set empty: try to steal from remote sockets' ready
    // sets, each probe paying the interconnect round trip.
    for (core::QwaitUnit *unit : stealTargets_) {
        chargeActive(stealExtraCycles_, qwaitInstr, false);
        freeAt_ += stealExtraCycles_;
        if (auto qid = unit->qwait()) {
            ++stolen_;
            return std::make_pair(*qid, unit);
        }
    }
    return std::nullopt;
}

void
HyperPlaneCore::accountHalt(Tick wakeTick)
{
    const Tick dur = wakeTick > haltStart_ ? wakeTick - haltStart_ : 0;
    if (powerOpt_)
        activity_.c1HaltTicks += dur;
    else
        activity_.c0HaltTicks += dur;
}

void
HyperPlaneCore::wake()
{
    if (!running_ || !halted_)
        return;
    ++pollEpoch_; // a real wake supersedes any pending poll timer
    halted_ = false;
    const Tick now = eq_.now();
    traceHaltEnd(now);
    if (tracer_) {
        tracer_->stamp(0, trace::Stage::Wake, trace::Phase::Instant, id_,
                       now);
    }
    accountHalt(now);
    ++activity_.wakeups;
    freeAt_ = now + (powerOpt_ ? c1WakeLatency_ : 0);
    eq_.schedule(freeAt_, [this] { step(); });
}

void
HyperPlaneCore::finalize(Tick endTick)
{
    if (halted_) {
        accountHalt(endTick);
        haltStart_ = endTick;
        // Close the open halt span so traces end well-formed.
        traceHaltEnd(endTick);
    }
}

void
HyperPlaneCore::traceHaltBegin(Tick t)
{
    if (tracer_)
        tracer_->stamp(0, trace::Stage::Halt, trace::Phase::Begin, id_, t);
}

void
HyperPlaneCore::traceHaltEnd(Tick t)
{
    // A wake event can fire between eq_.now() and the halting step's
    // freeAt_; clamp so the span never closes before it opened.
    if (tracer_) {
        tracer_->stamp(0, trace::Stage::Halt, trace::Phase::End, id_,
                       std::max(t, haltStart_));
    }
}

void
HyperPlaneCore::step()
{
    if (!running_)
        return;

    // Mandatory fallback service: demoted queues make progress at
    // bounded latency even while hardware grants keep the core busy.
    bool sweptThisStep = false;
    unsigned fallbackHits = 0;
    if (fallback_ != nullptr && !fallback_->empty() &&
        freeAt_ >= lastFallbackSweep_ + fallbackPollPeriod_) {
        fallbackHits = sweepFallback();
        sweptThisStep = true;
    }

    // QWAIT (Figure 4, steps 4-5), with optional remote stealing.
    const auto grant = qwaitAll();
    if (!grant) {
        if (fallback_ != nullptr && !fallback_->empty()) {
            // No hardware grant: poll the demoted queues in software.
            if (!sweptThisStep)
                fallbackHits = sweepFallback();
            if (fallbackHits > 0) {
                eq_.schedule(freeAt_, [this] { step(); });
                return;
            }
            if (backgroundQuantum_ == 0) {
                haltWithPollTimeout();
                return;
            }
            // Fall through: the background quantum re-polls anyway.
        }
        if (backgroundQuantum_ > 0) {
            // Non-blocking QWAIT: run a low-priority quantum, re-poll.
            activity_.backgroundTicks += backgroundQuantum_;
            activity_.backgroundInstr += static_cast<std::uint64_t>(
                backgroundIpc_ *
                static_cast<double>(backgroundQuantum_));
            activity_.activeTicks += backgroundQuantum_;
            freeAt_ += backgroundQuantum_;
            eq_.schedule(freeAt_, [this] { step(); });
            return;
        }
        // No ready queue: halt until the wake callback fires.
        halted_ = true;
        haltStart_ = freeAt_;
        traceHaltBegin(freeAt_);
        return;
    }
    const QueueId qid = grant->first;
    core::QwaitUnit &unit = *grant->second;

    // QWAIT returned a grant: the notification has reached software.
    if (tracer_) {
        tracer_->stamp(0, trace::Stage::QwaitReturn, trace::Phase::Instant,
                       id_, freeAt_, qid);
    }
    if (breakdown_ != nullptr)
        breakdown_->onGrant(qid, freeAt_);

    queueing::TaskQueue &q = queues_[qid];

    // QWAIT-VERIFY: filter spurious wake-ups/returns.
    Tick vcost = params_.verifyCycles;
    vcost += mem_.read(id_, q.doorbellAddr()).latency;
    const bool ready = unit.qwaitVerify(qid, q.doorbell());
    chargeActive(vcost, verifyInstr, ready);
    freeAt_ += vcost;

    if (ready) {
        if (tracer_) {
            tracer_->stamp(0, trace::Stage::Service, trace::Phase::Begin,
                           id_, freeAt_, qid);
        }
        // Dequeue up to batch_ items (step 6).
        std::vector<queueing::WorkItem> items;
        items.reserve(batch_);
        for (unsigned b = 0; b < batch_; ++b) {
            Tick dcost = params_.dequeueCycles;
            dcost += mem_.atomicRmw(id_, q.doorbellAddr()).latency;
            dcost += mem_.read(id_, q.descriptorAddr()).latency;
            auto item = q.dequeue();
            chargeActive(dcost, params_.dequeueInstr,
                         item.has_value());
            freeAt_ += dcost;
            if (!item)
                break;
            items.push_back(*item);
            if (q.empty())
                break;
        }

        // QWAIT-RECONSIDER: re-arm (empty) or re-activate (non-empty).
        // Its memory-barrier semantics put it after the dequeue but
        // before processing, maximizing intra-queue concurrency.
        if (!inOrder_) {
            unit.qwaitReconsider(qid, q.doorbell());
            chargeActive(params_.reconsiderCycles, reconsiderInstr,
                         true);
            freeAt_ += params_.reconsiderCycles;
        }

        // Transport processing (step 8).
        for (const auto &item : items)
            freeAt_ += processItem(item);

        if (tracer_) {
            tracer_->stamp(0, trace::Stage::Service, trace::Phase::End,
                           id_, freeAt_, qid);
        }

        if (inOrder_) {
            // In-order (flow-stateful) mode: RECONSIDER follows
            // processing (Algorithm 1 lines 18/19 swapped), so the
            // queue cannot be re-granted until this item is done.  It
            // must execute at its real simulated time — its wake
            // side-effects release other cores — so it runs as its own
            // event at freeAt_ rather than inside this step.
            core::QwaitUnit *u = &unit;
            eq_.schedule(freeAt_, [this, u, qid] {
                if (!running_)
                    return;
                queueing::TaskQueue &tq = queues_[qid];
                u->qwaitReconsider(qid, tq.doorbell());
                chargeActive(params_.reconsiderCycles, reconsiderInstr,
                             true);
                freeAt_ += params_.reconsiderCycles;
                eq_.schedule(freeAt_, [this] { step(); });
            });
            return;
        }
    }

    eq_.schedule(freeAt_, [this] { step(); });
}

} // namespace dp
} // namespace hyperplane
