/**
 * @file
 * Tenant classification, admission control, and queue-group steering
 * for the UDP data-plane server.
 *
 * The TenantTable is the RX-side half of multi-tenant QoS: it maps a
 * request to its tenant, decides whether the tenant's token bucket
 * admits it, decides whether the global backlog watermark sheds it,
 * and steers admitted requests into the tenant's own queue group.  The
 * scheduling half (per-queue WRR weights / strict priority) lives in
 * the ready-set policies the EmuHyperPlane already runs; the table
 * only has to keep tenants on disjoint queue groups so those policies
 * have something to differentiate.
 *
 * Tenant identity comes from the request's inner flow label:
 * tenant = flowId % numTenants.  That is the emulation's stand-in for
 * a real classifier key (VNI, MAC, TLS SNI...) — deterministic, cheap,
 * and easy for the load generator to target by striding its flow ids.
 *
 * Shedding order is priority-ranked: each tenant gets a backlog
 * threshold interpolated between the low and high watermark by its
 * priority rank, so as the server fills up the lowest-priority traffic
 * is refused first and the highest-priority traffic last.
 */

#ifndef HYPERPLANE_SERVER_TENANT_HH
#define HYPERPLANE_SERVER_TENANT_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "dp/tenant_spec.hh"
#include "server/flow.hh"
#include "sim/types.hh"

namespace hyperplane {
namespace server {

/**
 * Lock-free token bucket over an external nanosecond clock.
 *
 * Tokens are kept in micro-token fixed point so fractional refill per
 * call accumulates exactly.  Refill is CAS-claimed: one caller per
 * elapsed window adds the tokens, everyone else just tries to take.
 * Single-threaded use is exact; under producer concurrency the bucket
 * is approximate by at most one in-flight refill, which is the usual
 * admission-control contract.
 */
class TokenBucket
{
  public:
    /**
     * @param ratePerSec Admitted requests/second; <= 0 disables
     *                   limiting (tryTake always succeeds).
     * @param burst      Bucket depth, requests; <= 0 auto-sizes to
     *                   ~20 ms of rate (min 1).
     */
    TokenBucket(double ratePerSec, double burst);

    /** Take one token at time @p nowNs.  @return false = reject. */
    bool tryTake(std::uint64_t nowNs);

    bool unlimited() const { return microPerNs_ <= 0.0; }
    double ratePerSec() const { return ratePerSec_; }
    double burst() const { return burstMicro_ / 1e6; }

  private:
    static constexpr double microPerToken = 1e6;

    double ratePerSec_ = 0.0;
    /** Micro-tokens accrued per elapsed nanosecond. */
    double microPerNs_ = 0.0;
    double burstMicro_ = 0.0;
    std::atomic<std::uint64_t> lastRefillNs_{0};
    std::atomic<std::int64_t> microTokens_{0};
};

/**
 * Immutable tenant map + mutable admission state for one server.  It
 * classifies, admits and steers; the server counts each tenant's
 * traffic in a tenant column of its counter matrix.
 */
class TenantTable
{
  public:
    /** tenantOfQueue() result for a queue no tenant's group covers. */
    static constexpr unsigned invalidTenant = static_cast<unsigned>(-1);

    /**
     * @param specs     Tenant list; empty builds one implicit
     *                  unlimited tenant spanning every queue.
     * @param numQueues The server's queue count.
     * @param shedLowWatermark  Backlog (total queued requests) at which
     *                  the lowest-priority tenant starts shedding.
     * @param shedHighWatermark Backlog at which every tenant sheds;
     *                  0 disables watermark shedding entirely.
     * @throws std::invalid_argument on a malformed spec list (same
     *         messages as SdpConfig::validate()).
     */
    TenantTable(std::vector<dp::TenantSpec> specs, unsigned numQueues,
                std::size_t shedLowWatermark,
                std::size_t shedHighWatermark);

    unsigned numTenants() const
    {
        return static_cast<unsigned>(specs_.size());
    }

    const dp::TenantSpec &spec(unsigned tenant) const
    {
        return specs_[tenant];
    }

    /** Effective display name of @p tenant. */
    const std::string &name(unsigned tenant) const
    {
        return names_[tenant];
    }

    /** Classify a request by its inner flow label. */
    unsigned
    tenantOf(std::uint32_t flowId) const
    {
        return flowId % numTenants();
    }

    /** Owner of @p qid (queue groups are disjoint and covering-checked
     *  at steering time, so this is a plain range scan over few
     *  tenants). */
    unsigned tenantOfQueue(QueueId qid) const;

    /** Steer @p key into @p tenant's queue group. */
    QueueId steer(const FlowKey &key, unsigned tenant) const;

    /**
     * Token-bucket admission for one request of @p tenant at @p nowNs.
     * @return false = reject (statusRateLimited).
     */
    bool admit(unsigned tenant, std::uint64_t nowNs);

    /**
     * Watermark shed decision: true when the current @p backlog means
     * @p tenant's new arrivals should be refused (statusShed).
     * Lowest priority sheds first; disabled tables never shed.
     */
    bool
    shouldShed(unsigned tenant, std::size_t backlog) const
    {
        const std::size_t thr = shedThreshold_[tenant];
        return thr != 0 && backlog >= thr;
    }

    /** The backlog threshold of @p tenant (0 = never sheds). */
    std::size_t shedThreshold(unsigned tenant) const
    {
        return shedThreshold_[tenant];
    }

  private:
    std::vector<dp::TenantSpec> specs_;
    std::vector<std::string> names_;
    /** qid -> owning tenant. */
    std::vector<unsigned> queueOwner_;
    std::vector<std::size_t> shedThreshold_;
    std::vector<std::unique_ptr<TokenBucket>> buckets_;
};

} // namespace server
} // namespace hyperplane

#endif // HYPERPLANE_SERVER_TENANT_HH
