/**
 * @file
 * Sharded hot-path statistics: single-writer counters and per-stage
 * latency histograms.
 *
 * Every server counter lives in one matrix of stats::WriterCell cells:
 * each stage thread owns a cache-line-aligned block with a column per
 * tenant and is the single writer of its cells (stats/single_writer.hh).
 * Readers aggregate across shards on demand — a scrape-time cost, not a
 * hot-path one.
 *
 * Latency histograms follow the same discipline: each shard owns a
 * stats::HistogramShard per (stage, tenant), and aggregation merges
 * their snapshots into LogHistogram values, so quantiles come from the
 * full population.
 */

#ifndef HYPERPLANE_TELEMETRY_SHARD_STATS_HH
#define HYPERPLANE_TELEMETRY_SHARD_STATS_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>

#include "stats/histogram.hh"
#include "stats/single_writer.hh"

namespace hyperplane {
namespace telemetry {

/**
 * The server's counters, one row each of the CounterShards matrix.  The
 * server's declared counter table gives each row its exported name and
 * scope (server-wide, per tenant, or both).
 */
enum class Counter : unsigned
{
    RxBatches,       ///< recvmmsg batches with >= 1 datagram
    RxPackets,       ///< datagrams received
    ParseErrors,     ///< datagrams rejected by the wire codec
    Admitted,        ///< requests queued toward a serving thread
    Served,          ///< requests completed by a serving thread
    TxPackets,       ///< responses sent
    QueueDrops,      ///< arrivals refused by a full request queue
    PoolDrops,       ///< arrivals with no frame left even for a reject
    ShedRateLimited, ///< token-bucket rejects
    ShedWatermark,   ///< backlog-watermark rejects
    ShedQueueFull,   ///< full-queue and dry-pool rejects
    BadStatus,       ///< responses with a non-OK status
    TxSendErrors,    ///< responses sendmmsg did not take
    PoolExhausted,   ///< frame-pool acquires that found no frame
    PayloadCopies,   ///< payload copies between RX and TX frames
};

constexpr unsigned kNumCounters = 15;

/**
 * The (shard x tenant column x counter) matrix of single-writer cells.
 * A "shard" is one stage thread (an RX shard or a worker) and only
 * ever writes its own cells; each shard's block starts on a fresh cache
 * line so two threads never share one.  Tenants 0..tenants-1 have a
 * column each, and one more column holds the counts that belong to no
 * tenant: batches, parse errors, sends, and events on a queue no tenant
 * owns.  Every total is a sum over the matrix.
 */
class CounterShards
{
  public:
    /** Tenant id of the no-tenant column; every id >= numTenants()
     *  lands there too. */
    static constexpr unsigned noTenant = static_cast<unsigned>(-1);

    CounterShards(unsigned shards, unsigned tenants);

    unsigned numShards() const { return shards_; }
    unsigned numTenants() const { return tenants_; }

    /** Bump @p tenant's counter @p c from shard @p shard's own thread. */
    void add(unsigned shard, unsigned tenant, Counter c,
             std::uint64_t n = 1)
    {
        cell(shard, tenant, c).add(n);
    }

    /** One counter summed over every shard and column (any thread). */
    std::uint64_t total(Counter c) const;

    /** One column (a tenant, or noTenant) summed over every shard. */
    std::uint64_t tenantTotal(unsigned tenant, Counter c) const;

    /** One shard's value summed over every column (any thread). */
    std::uint64_t shardValue(unsigned shard, Counter c) const;

  private:
    static constexpr unsigned kCellsPerLine = 8;

    struct alignas(64) Line
    {
        stats::WriterCell cells[kCellsPerLine];
    };

    stats::WriterCell &cell(unsigned shard, unsigned tenant, Counter c) const
    {
        const std::size_t i =
            shard * stride_ +
            std::min(tenant, tenants_) * std::size_t{kNumCounters} +
            static_cast<unsigned>(c);
        return lines_[i / kCellsPerLine].cells[i % kCellsPerLine];
    }

    unsigned shards_;
    unsigned tenants_;
    /** Cells per shard: every column, rounded up to whole lines. */
    std::size_t stride_;
    std::unique_ptr<Line[]> lines_;
};

/** Server pipeline stages with live latency histograms. */
enum class ServerStage : unsigned
{
    RxAdmit,      ///< datagram received -> admission verdict
    AdmitDoorbell,///< admission verdict -> doorbell ring
    QwaitService, ///< admission -> grant dequeued (RX inline or worker)
    ServiceTx,    ///< service done -> own sendmmsg, same thread
    EndToEnd,     ///< datagram received -> response on the wire
};

constexpr unsigned kNumServerStages = 5;

const char *toString(ServerStage s);

/** Geometry of every per-stage latency histogram (nanoseconds). */
struct StageHistGeometry
{
    double baseNs;
    double growth;
    unsigned bins;
};

constexpr StageHistGeometry kStageHist{200.0, 1.05, 512};

/**
 * The full (shard x stage x tenant) histogram matrix, every cell with
 * the kStageHist geometry.  Hot-path writes index straight into the
 * owning shard's histogram; aggregation merges across shards (and
 * optionally tenants) into a LogHistogram.
 */
class StageLatencyShards
{
  public:
    StageLatencyShards(unsigned shards, unsigned tenants);

    /** An empty histogram with the kStageHist geometry. */
    static stats::LogHistogram emptyHistogram()
    {
        return stats::LogHistogram(kStageHist.baseNs, kStageHist.growth,
                                   kStageHist.bins);
    }

    unsigned numShards() const { return shards_; }
    unsigned numTenants() const { return tenants_; }

    /** Record @p ns from shard @p shard's owning thread. */
    void record(unsigned shard, ServerStage st, unsigned tenant,
                double ns)
    {
        hists_[index(shard, st, tenant)].record(ns);
    }

    /** Merge one (stage, tenant) cell across all shards. */
    stats::LogHistogram aggregate(ServerStage st,
                                  unsigned tenant) const;

    /** Merge one stage across all shards and tenants. */
    stats::LogHistogram aggregate(ServerStage st) const;

    /** Total samples recorded for a stage (all shards, all tenants). */
    std::uint64_t samples(ServerStage st) const;

  private:
    std::size_t index(unsigned shard, ServerStage st,
                      unsigned tenant) const
    {
        return (static_cast<std::size_t>(shard) * kNumServerStages +
                static_cast<unsigned>(st)) *
                   tenants_ +
               tenant;
    }

    unsigned shards_;
    unsigned tenants_;
    std::deque<stats::HistogramShard> hists_;
};

} // namespace telemetry
} // namespace hyperplane

#endif // HYPERPLANE_TELEMETRY_SHARD_STATS_HH
