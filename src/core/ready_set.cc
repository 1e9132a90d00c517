#include "core/ready_set.hh"

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace hyperplane {
namespace core {

const char *
toString(ServicePolicy p)
{
    switch (p) {
      case ServicePolicy::RoundRobin:
        return "round-robin";
      case ServicePolicy::WeightedRoundRobin:
        return "weighted-round-robin";
      case ServicePolicy::StrictPriority:
        return "strict-priority";
    }
    return "?";
}

ReadySet::ReadySet(const ReadySetConfig &cfg)
    : cfg_(cfg), ready_(cfg.capacity), mask_(cfg.capacity),
      weights_(cfg.capacity, cfg.defaultWeight ? cfg.defaultWeight : 1)
{
    hp_assert(cfg.capacity > 0, "ready set needs at least one entry");
    switch (cfg.arbiter) {
      case ArbiterKind::BrentKung:
        arbiter_ = std::make_unique<BrentKungPpa>();
        break;
      case ArbiterKind::Ripple:
        arbiter_ = std::make_unique<RipplePpa>();
        break;
    }
    mask_.setAll(); // all queues enabled by default
}

void
ReadySet::activate(QueueId qid)
{
    hp_assert(qid < cfg_.capacity, "qid out of range");
    ready_.set(qid);
    activations.inc();
    if (tracer_) {
        tracer_->stamp(0, trace::Stage::ReadyActivate,
                       trace::Phase::Instant, track_, clock_->now(), qid);
    }
}

void
ReadySet::deactivate(QueueId qid)
{
    hp_assert(qid < cfg_.capacity, "qid out of range");
    ready_.clear(qid);
    if (stickyQid_ == qid)
        stickyCredit_ = 0;
}

bool
ReadySet::isReady(QueueId qid) const
{
    hp_assert(qid < cfg_.capacity, "qid out of range");
    return ready_.test(qid);
}

void
ReadySet::enable(QueueId qid)
{
    hp_assert(qid < cfg_.capacity, "qid out of range");
    mask_.set(qid);
}

void
ReadySet::disable(QueueId qid)
{
    hp_assert(qid < cfg_.capacity, "qid out of range");
    mask_.clear(qid);
}

bool
ReadySet::isEnabled(QueueId qid) const
{
    hp_assert(qid < cfg_.capacity, "qid out of range");
    return mask_.test(qid);
}

void
ReadySet::setWeight(QueueId qid, std::uint32_t weight)
{
    hp_assert(qid < cfg_.capacity, "qid out of range");
    hp_assert(weight >= 1, "WRR weight must be at least 1");
    weights_[qid] = weight;
}

std::uint32_t
ReadySet::weight(QueueId qid) const
{
    hp_assert(qid < cfg_.capacity, "qid out of range");
    return weights_[qid];
}

std::optional<QueueId>
ReadySet::selectNext()
{
    const BitVec masked = ready_ & mask_;

    if (cfg_.policy == ServicePolicy::WeightedRoundRobin &&
        stickyQid_ != invalidQueueId && stickyCredit_ > 0 &&
        masked.test(stickyQid_)) {
        // The priority holder still has credit and work: grant it again
        // for another consecutive round.
        --stickyCredit_;
        ready_.clear(stickyQid_);
        grants.inc();
        if (tracer_) {
            tracer_->stamp(0, trace::Stage::ReadyGrant,
                           trace::Phase::Instant, track_, clock_->now(),
                           stickyQid_);
        }
        return stickyQid_;
    }

    unsigned priorityPos = currentPriority_;
    if (cfg_.policy == ServicePolicy::StrictPriority)
        priorityPos = 0; // fixed "10...0" current-priority vector

    const int grant = arbiter_->select(masked, priorityPos);
    if (grant == noGrant)
        return std::nullopt;

    const auto qid = static_cast<QueueId>(grant);
    ready_.clear(qid);
    grants.inc();
    if (tracer_) {
        tracer_->stamp(0, trace::Stage::ReadyGrant, trace::Phase::Instant,
                       track_, clock_->now(), qid);
    }

    switch (cfg_.policy) {
      case ServicePolicy::RoundRobin:
        // The granted QID gets the lowest priority next round: rotate
        // the priority to the next bit position.
        currentPriority_ = (qid + 1) % cfg_.capacity;
        break;
      case ServicePolicy::WeightedRoundRobin:
        // Reload the weight counter for the new priority holder.
        stickyQid_ = qid;
        stickyCredit_ = weights_[qid] - 1;
        currentPriority_ = (qid + 1) % cfg_.capacity;
        break;
      case ServicePolicy::StrictPriority:
        break; // priority never moves
    }
    return qid;
}

bool
ReadySet::anyReady() const
{
    return (ready_ & mask_).any();
}

unsigned
ReadySet::readyCount() const
{
    return (ready_ & mask_).count();
}

void
ReadySet::reset()
{
    ready_.reset();
    mask_.setAll();
    currentPriority_ = 0;
    stickyQid_ = invalidQueueId;
    stickyCredit_ = 0;
}

} // namespace core
} // namespace hyperplane
