#include "server/tenant.hh"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "sim/logging.hh"

namespace hyperplane {
namespace server {

TokenBucket::TokenBucket(double ratePerSec, double burst)
    : ratePerSec_(ratePerSec)
{
    if (ratePerSec > 0.0) {
        microPerNs_ = ratePerSec * microPerToken / 1e9;
        const double depth =
            burst > 0.0 ? burst : std::max(1.0, ratePerSec * 0.02);
        burstMicro_ = depth * microPerToken;
        microTokens_.store(static_cast<std::int64_t>(burstMicro_),
                           std::memory_order_relaxed);
    }
}

bool
TokenBucket::tryTake(std::uint64_t nowNs)
{
    if (unlimited())
        return true;

    // Refill: CAS-claim the elapsed window, then add its tokens.  A
    // claim is only attempted once at least one micro-token accrued, so
    // truncation loses < 1e-6 token per call.  Losing the CAS just
    // means another caller is adding the same window's tokens.
    std::uint64_t last = lastRefillNs_.load(std::memory_order_acquire);
    if (nowNs > last) {
        const double add =
            static_cast<double>(nowNs - last) * microPerNs_;
        if (add >= 1.0 &&
            lastRefillNs_.compare_exchange_strong(
                last, nowNs, std::memory_order_acq_rel)) {
            const auto addMicro = static_cast<std::int64_t>(add);
            const auto cap = static_cast<std::int64_t>(burstMicro_);
            const std::int64_t after =
                microTokens_.fetch_add(addMicro,
                                       std::memory_order_relaxed) +
                addMicro;
            if (after > cap) {
                microTokens_.fetch_sub(after - cap,
                                       std::memory_order_relaxed);
            }
        }
    }

    const auto cost = static_cast<std::int64_t>(microPerToken);
    const std::int64_t before =
        microTokens_.fetch_sub(cost, std::memory_order_acq_rel);
    if (before < cost) {
        microTokens_.fetch_add(cost, std::memory_order_relaxed);
        return false;
    }
    return true;
}

TenantTable::TenantTable(std::vector<dp::TenantSpec> specs,
                         unsigned numQueues,
                         std::size_t shedLowWatermark,
                         std::size_t shedHighWatermark)
    : specs_(std::move(specs))
{
    hp_assert(numQueues > 0, "need at least one queue");
    if (specs_.empty()) {
        dp::TenantSpec all;
        all.name = "default";
        all.queueFirst = 0;
        all.queueCount = numQueues;
        specs_.push_back(std::move(all));
    }
    const std::string err = dp::validateTenantSpecs(specs_, numQueues);
    if (!err.empty())
        throw std::invalid_argument("TenantTable: " + err);
    if (shedHighWatermark > 0 &&
        (shedLowWatermark == 0 ||
         shedLowWatermark > shedHighWatermark)) {
        throw std::invalid_argument(
            "TenantTable: shedLowWatermark must be in "
            "(0, shedHighWatermark] when watermark shedding is "
            "enabled");
    }

    names_.reserve(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i)
        names_.push_back(dp::tenantName(specs_[i], i));

    queueOwner_.assign(numQueues, invalidTenant);
    for (unsigned t = 0; t < specs_.size(); ++t) {
        const auto &s = specs_[t];
        for (unsigned q = s.queueFirst; q < s.queueFirst + s.queueCount;
             ++q) {
            queueOwner_[q] = t;
        }
    }

    // Priority-ranked shed thresholds: distinct priorities, ascending,
    // interpolate each rank between the low and high watermark.  The
    // lowest priority sheds first; with one priority level everyone
    // sheds at the high watermark.
    shedThreshold_.assign(specs_.size(), 0);
    if (shedHighWatermark > 0) {
        std::set<std::uint32_t> levels;
        for (const auto &s : specs_)
            levels.insert(s.priority);
        const std::size_t numLevels = levels.size();
        for (unsigned t = 0; t < specs_.size(); ++t) {
            const std::size_t rank = static_cast<std::size_t>(
                std::distance(levels.begin(),
                              levels.find(specs_[t].priority)));
            shedThreshold_[t] =
                numLevels <= 1
                    ? shedHighWatermark
                    : shedLowWatermark +
                          (shedHighWatermark - shedLowWatermark) *
                              rank / (numLevels - 1);
        }
    }

    buckets_.reserve(specs_.size());
    for (const auto &s : specs_) {
        buckets_.push_back(std::make_unique<TokenBucket>(
            s.rateLimitPerSec, s.burst));
    }
}

unsigned
TenantTable::tenantOfQueue(QueueId qid) const
{
    hp_assert(qid < queueOwner_.size(), "qid out of range");
    return queueOwner_[qid];
}

QueueId
TenantTable::steer(const FlowKey &key, unsigned tenant) const
{
    const auto &s = specs_[tenant];
    return s.queueFirst + flowHash(key) % s.queueCount;
}

bool
TenantTable::admit(unsigned tenant, std::uint64_t nowNs)
{
    return buckets_[tenant]->tryTake(nowNs);
}

} // namespace server
} // namespace hyperplane
