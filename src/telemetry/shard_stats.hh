/**
 * @file
 * Sharded hot-path statistics: single-writer counters and per-stage
 * latency histograms.
 *
 * Every server counter lives in one matrix of cells: each stage thread
 * owns a cache-line-aligned block with a column per tenant, and bumps
 * its cells with a plain load+store (memory_order_relaxed, no RMW): with
 * exactly one writer per cell there is nothing to win a race against,
 * the store costs the same as an ordinary increment, and TSan stays
 * happy because the cell is still a std::atomic.  Readers aggregate
 * across shards on demand — a scrape-time cost, not a hot-path one.
 *
 * The same single-writer discipline extends to latency histograms:
 * each shard owns geometric bins mirroring stats::LogHistogram, and
 * aggregation lifts per-shard snapshots into LogHistogram values via
 * fromParts() and merge(), so quantiles come from the full population.
 */

#ifndef HYPERPLANE_TELEMETRY_SHARD_STATS_HH
#define HYPERPLANE_TELEMETRY_SHARD_STATS_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "stats/histogram.hh"

namespace hyperplane {
namespace telemetry {

/**
 * One 64-bit counter with a single designated writer.  add() performs
 * a relaxed load+store rather than a fetch_add: the cell never has two
 * writers, so the non-atomic update is race-free while the atomic type
 * guarantees readers never see a torn value.
 */
class WriterCell
{
  public:
    void add(std::uint64_t n = 1)
    {
        v_.store(v_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
    }

    std::uint64_t read() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/**
 * The server's counters, one row each of the CounterShards matrix.  The
 * server's declared counter table gives each row its exported name and
 * scope (server-wide, per tenant, or both).
 */
enum class Counter : unsigned
{
    RxBatches,          ///< recvmmsg batches with >= 1 datagram
    RxPackets,          ///< datagrams received
    ParseErrors,        ///< datagrams rejected by the wire codec
    Admitted,           ///< requests queued toward a serving thread
    Served,             ///< requests completed by a serving thread
    TxPackets,          ///< responses sent
    QueueDrops,         ///< arrivals refused by a full request queue
    PoolDrops,          ///< arrivals with no frame left even for a reject
    ShedRateLimited,    ///< token-bucket rejects
    ShedWatermark,      ///< backlog-watermark rejects
    ShedQueueFull,      ///< full-queue and dry-pool rejects
    StormDemotions,     ///< queues muted for ringing past the rate cap
    RingsDropped,       ///< injected doorbell-ring drops
    BadStatus,          ///< responses with a non-OK status
    TxSendErrors,       ///< responses sendmmsg did not take
    WatchdogSweeps,     ///< watchdog audit sweeps
    WatchdogRecoveries, ///< lost rings the watchdog replayed
    FallbackServes,     ///< work served by the polled fallback path
    Demotions,          ///< queues demoted to polled mode (any cause)
    Promotions,         ///< demoted queues promoted back
};

constexpr unsigned kNumCounters = 20;

/**
 * The (shard x tenant column x counter) matrix of single-writer cells.
 * A "shard" is one stage thread (RX shard, worker, or the watchdog) and
 * only ever writes its own cells; each shard's block starts on a fresh
 * cache line so two threads never share one.  Tenants 0..tenants-1
 * have a column each, and one more column holds the counts that belong
 * to no tenant: batches, parse errors, sweeps, sends, and events on a
 * queue no tenant owns.  Every total is a sum over the matrix.
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
        WriterCell cells[kCellsPerLine];
    };

    WriterCell &cell(unsigned shard, unsigned tenant, Counter c) const
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

/**
 * Single-writer geometric histogram shard.  record() is owner-thread
 * only; snapshot() may run from any thread and lifts the bins into a
 * stats::LogHistogram.  A concurrent snapshot can catch a record
 * mid-flight (bin bumped, sum not yet) — the result is still a valid
 * histogram, merely one sample blurry, which is fine for operational
 * quantiles.
 */
class HistogramShard
{
  public:
    HistogramShard(double base, double growth, unsigned bins);

    HistogramShard(const HistogramShard &) = delete;
    HistogramShard &operator=(const HistogramShard &) = delete;

    /** Record a sample (owning thread only). */
    void record(double v);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    /** Consistent-enough copy as a LogHistogram (any thread). */
    stats::LogHistogram snapshot() const;

  private:
    unsigned binFor(double v) const;

    double base_;
    double growth_;
    double logGrowth_;
    std::vector<std::atomic<std::uint64_t>> bins_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
};

/**
 * The full (shard x stage x tenant) histogram matrix.  Hot-path
 * writes index straight into the owning shard's histogram; aggregation
 * merges across shards (and optionally tenants) into a LogHistogram.
 */
class StageLatencyShards
{
  public:
    StageLatencyShards(unsigned shards, unsigned tenants,
                       double baseNs = 200.0, double growth = 1.05,
                       unsigned bins = 512);

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
    double baseNs_;
    double growth_;
    unsigned bins_;
    std::deque<HistogramShard> hists_;
};

} // namespace telemetry
} // namespace hyperplane

#endif // HYPERPLANE_TELEMETRY_SHARD_STATS_HH
