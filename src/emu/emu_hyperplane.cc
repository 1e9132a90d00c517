#include "emu/emu_hyperplane.hh"

#include "sim/logging.hh"

namespace hyperplane {
namespace emu {

EmuHyperPlane::EmuHyperPlane(unsigned maxQueues,
                             core::ServicePolicy policy)
    : ready_(core::ReadySetConfig{maxQueues, policy,
                                  core::ArbiterKind::BrentKung, 1}),
      doorbells_(maxQueues, 0), registered_(maxQueues, false)
{
    hp_assert(maxQueues > 0, "need at least one queue slot");
}

std::optional<QueueId>
EmuHyperPlane::addQueue()
{
    std::lock_guard<std::mutex> lock(m_);
    if (numRegistered_ == registered_.size())
        return std::nullopt;
    for (QueueId q = 0; q < registered_.size(); ++q) {
        if (!registered_[q]) {
            registered_[q] = true;
            doorbells_[q] = 0;
            ready_.enable(q);
            ++numRegistered_;
            return q;
        }
    }
    return std::nullopt;
}

void
EmuHyperPlane::removeQueue(QueueId qid)
{
    std::lock_guard<std::mutex> lock(m_);
    hp_assert(qid < registered_.size(), "qid out of range");
    if (!registered_[qid])
        return;
    registered_[qid] = false;
    doorbells_[qid] = 0;
    ready_.deactivate(qid);
    --numRegistered_;
}

bool
EmuHyperPlane::notifyOne()
{
    if (waiters_ <= wakesInFlight_)
        return false;
    ++wakesInFlight_;
    ++wakeups_;
    cv_.notify_one();
    return true;
}

bool
EmuHyperPlane::notifyIfNewlyGrantable(QueueId qid, bool wasGrantable)
{
    if (wasGrantable || !grantable(qid))
        return false;
    return notifyOne();
}

void
EmuHyperPlane::ring(QueueId qid, std::uint64_t n, Wake wake)
{
    std::lock_guard<std::mutex> lock(m_);
    hp_assert(qid < registered_.size(), "qid out of range");
    hp_assert(registered_[qid], "ring on unregistered queue");
    doorbells_[qid] += n;
    // The monitoring-set disarm/activate: mark the queue ready.  One
    // waiter per newly-grantable queue — a ring on an already-ready
    // queue wakes nobody (the pending state will be granted anyway).
    const bool wasGrantable = grantable(qid);
    ready_.activate(qid);
    if (wake == Wake::Now)
        notifyIfNewlyGrantable(qid, wasGrantable);
}

bool
EmuHyperPlane::wakeOneIfGrantable()
{
    std::lock_guard<std::mutex> lock(m_);
    return ready_.readyCount() > wakesInFlight_ && notifyOne();
}

std::optional<QueueId>
EmuHyperPlane::qwait(std::chrono::nanoseconds timeout)
{
    using clock = std::chrono::steady_clock;
    const auto deadline = timeout == forever ? clock::time_point::max()
                                             : clock::now() + timeout;
    std::unique_lock<std::mutex> lock(m_);
    auto status = std::cv_status::no_timeout;
    for (bool woken = false; !closed_; woken = true) {
        if (const auto qid = ready_.selectNext()) {
            ++grants_;
            return qid;
        }
        if (status == std::cv_status::timeout) {
            ++qwaitTimeouts_;
            return std::nullopt;
        }
        // Notified (or pthread-spurious) but nothing grantable: a racing
        // consumer claimed the queue first.
        if (woken)
            ++spuriousWakes_;
        ++waiters_;
        if (timeout == forever)
            cv_.wait(lock);
        else
            status = cv_.wait_until(lock, deadline);
        --waiters_;
        // Whatever woke us, one claimed notify (if any) is now spent.
        if (wakesInFlight_ > 0)
            --wakesInFlight_;
    }
    return std::nullopt;
}

void
EmuHyperPlane::close()
{
    std::lock_guard<std::mutex> lock(m_);
    closed_ = true;
    cv_.notify_all();
}

std::optional<QueueId>
EmuHyperPlane::qwaitNonBlocking()
{
    std::lock_guard<std::mutex> lock(m_);
    auto qid = ready_.selectNext();
    if (qid)
        ++grants_;
    return qid;
}

std::uint64_t
EmuHyperPlane::take(QueueId qid, std::uint64_t maxItems)
{
    std::lock_guard<std::mutex> lock(m_);
    hp_assert(qid < registered_.size(), "qid out of range");
    // QWAIT-VERIFY: a spurious grant claims nothing; the queue stays
    // armed (next ring() re-activates it).
    const std::uint64_t avail = doorbells_[qid];
    const std::uint64_t taken = std::min(avail, maxItems);
    doorbells_[qid] -= taken;
    // QWAIT-RECONSIDER: re-activate if items remain, and hand the
    // residual to another waiter instead of stranding it until the
    // next ring.
    if (doorbells_[qid] > 0) {
        const bool wasGrantable = grantable(qid);
        ready_.activate(qid);
        notifyIfNewlyGrantable(qid, wasGrantable);
    }
    return taken;
}

void
EmuHyperPlane::enable(QueueId qid)
{
    std::lock_guard<std::mutex> lock(m_);
    const bool wasGrantable = grantable(qid);
    ready_.enable(qid);
    // Targeted: enabling makes at most this one queue newly grantable.
    notifyIfNewlyGrantable(qid, wasGrantable);
}

void
EmuHyperPlane::disable(QueueId qid)
{
    std::lock_guard<std::mutex> lock(m_);
    ready_.disable(qid);
}

void
EmuHyperPlane::setWeight(QueueId qid, std::uint32_t weight)
{
    std::lock_guard<std::mutex> lock(m_);
    ready_.setWeight(qid, weight);
}

std::uint64_t
EmuHyperPlane::pendingItems(QueueId qid) const
{
    std::lock_guard<std::mutex> lock(m_);
    hp_assert(qid < doorbells_.size(), "qid out of range");
    return doorbells_[qid];
}

std::uint64_t
EmuHyperPlane::totalPending() const
{
    std::lock_guard<std::mutex> lock(m_);
    std::uint64_t total = 0;
    for (QueueId q = 0; q < registered_.size(); ++q)
        if (registered_[q])
            total += doorbells_[q];
    return total;
}

std::uint64_t
EmuHyperPlane::grants() const
{
    std::lock_guard<std::mutex> lock(m_);
    return grants_;
}

std::uint64_t
EmuHyperPlane::wakeups() const
{
    std::lock_guard<std::mutex> lock(m_);
    return wakeups_;
}

std::uint64_t
EmuHyperPlane::spuriousWakes() const
{
    std::lock_guard<std::mutex> lock(m_);
    return spuriousWakes_;
}

std::uint64_t
EmuHyperPlane::qwaitTimeouts() const
{
    std::lock_guard<std::mutex> lock(m_);
    return qwaitTimeouts_;
}

void
EmuHyperPlane::registerStats(stats::Registry &reg,
                             const std::string &prefix) const
{
    reg.addScalar(prefix + ".grants",
                  [this] { return static_cast<double>(grants()); });
    reg.addScalar(prefix + ".wakeups",
                  [this] { return static_cast<double>(wakeups()); });
    reg.addScalar(prefix + ".spurious_wakes", [this] {
        return static_cast<double>(spuriousWakes());
    });
    reg.addScalar(prefix + ".qwait_timeouts", [this] {
        return static_cast<double>(qwaitTimeouts());
    });
}

} // namespace emu
} // namespace hyperplane
