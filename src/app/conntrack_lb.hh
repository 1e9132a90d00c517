/**
 * @file
 * Connection-tracking NAT/load-balancer: per-connection state (5-tuple
 * -> backend, expected seqno, idle timestamp) sharded by the crc32c
 * flow hash so every connection's entry is owned by exactly one worker
 * core — the core-local sharding argument of arXiv 1703.05442.  Idle
 * entries expire in the data path: a request finds its own idle entry
 * expired, and an amortized shard sweep bounds the table.
 *
 * Backend selection hashes the 5-tuple, so a connection that expires
 * and re-opens lands on the same backend (stable under churn).  Data
 * packets for unknown connections re-create the entry (UDP loss of the
 * Open is tolerated and counted as a miss, not a failure); sequence
 * gaps are counted as out-of-order, also non-fatal.
 */

#ifndef HYPERPLANE_APP_CONNTRACK_LB_HH
#define HYPERPLANE_APP_CONNTRACK_LB_HH

#include <unordered_map>
#include <vector>

#include "app/app.hh"
#include "app/shard_table.hh"

namespace hyperplane {
namespace app {

/** The sharded connection-tracking load balancer. */
class ConntrackLbApp : public StatefulHandler
{
  public:
    explicit ConntrackLbApp(const AppConfig &cfg);

    AppKind kind() const override { return AppKind::ConntrackLb; }
    AppResult handle(unsigned shard, const AppRequest &req,
                     std::uint8_t *out, std::size_t outCap) override;
    void registerStats(stats::Registry &reg,
                       const std::string &prefix) override;

    /** Aggregated counters (sums across shards, any thread). */
    std::uint64_t activeConnections() const
    {
        return sumShards(shards_, &Shard::active);
    }
    std::uint64_t opens() const { return sumShards(shards_, &Shard::opens); }
    std::uint64_t closes() const
    {
        return sumShards(shards_, &Shard::closes);
    }
    std::uint64_t expiries() const
    {
        return sumShards(shards_, &Shard::expiries);
    }
    std::uint64_t misses() const
    {
        return sumShards(shards_, &Shard::misses);
    }
    std::uint64_t outOfOrder() const
    {
        return sumShards(shards_, &Shard::outOfOrder);
    }

  private:
    struct Entry
    {
        std::uint32_t backend = 0;
        std::uint32_t expectedSeq = 0;
        std::uint64_t lastSeenNs = 0;
    };

    struct Shard
    {
        std::unordered_map<std::uint64_t, Entry> conns;
        stats::WriterCell active; ///< conns.size(), for scrapers
        stats::WriterCell opens;
        stats::WriterCell closes;
        stats::WriterCell expiries;
        stats::WriterCell misses;
        stats::WriterCell outOfOrder;
        stats::WriterCell overflows;
        stats::WriterCell decodeErrors;
        std::uint64_t lastSweepNs = 0;
    };

    static std::uint64_t connKey(const CtRequest &m);
    std::uint32_t pickBackend(const CtRequest &m) const;

    AppConfig cfg_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace app
} // namespace hyperplane

#endif // HYPERPLANE_APP_CONNTRACK_LB_HH
