/**
 * @file
 * Sharded hot-path statistics: single-writer counters and per-stage
 * latency histograms.
 *
 * The server's hottest counters used to be contended std::atomic
 * fetch_adds touched by every RX shard and worker.  Here
 * each stage thread owns a cache-line-aligned block of cells and bumps
 * them with a plain load+store (memory_order_relaxed, no RMW): with
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

#include <atomic>
#include <cstdint>
#include <deque>
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

/** Hot server counters that moved out of the global atomic block. */
enum class HotCounter : unsigned
{
    RxBatches,   ///< recvmmsg batches with >= 1 datagram
    RxPackets,   ///< datagrams received
    ParseErrors, ///< datagrams rejected by the wire codec
    Served,      ///< requests completed by a serving thread
    TxPackets,   ///< responses sent
};

constexpr unsigned kNumHotCounters = 5;

const char *toString(HotCounter c);

/**
 * Per-shard blocks of hot counters.  A "shard" is one stage thread
 * (RX shard, worker, or the watchdog); each block is cache-line aligned
 * so two threads never share a line.
 */
class CounterShards
{
  public:
    explicit CounterShards(unsigned shards);

    unsigned numShards() const
    {
        return static_cast<unsigned>(blocks_.size());
    }

    /** Bump a counter from its owning shard thread. */
    void add(unsigned shard, HotCounter c, std::uint64_t n = 1)
    {
        blocks_[shard].cells[static_cast<unsigned>(c)].add(n);
    }

    /** Sum of one counter across all shards (any thread). */
    std::uint64_t total(HotCounter c) const;

    /** One shard's value of one counter (any thread). */
    std::uint64_t shardValue(unsigned shard, HotCounter c) const
    {
        return blocks_[shard].cells[static_cast<unsigned>(c)].read();
    }

  private:
    struct alignas(64) Block
    {
        WriterCell cells[kNumHotCounters];
    };

    std::deque<Block> blocks_;
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
