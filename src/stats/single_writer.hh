/**
 * @file
 * Single-writer statistics: a counter cell and a geometric histogram
 * that exactly one thread at a time updates while any thread reads.
 *
 * Updates are relaxed load+store pairs, never read-modify-writes: with
 * one writer there is nothing to win a race against, so an update
 * costs the same as an ordinary increment, and readers still never see
 * a torn value because every field is a std::atomic.  The writer may
 * change hands (a queue's serving thread, an app shard's owner) as long
 * as the hand-off orders the two writers, e.g. through a mutex.
 *
 * The server's counter matrix and stage histograms
 * (telemetry/shard_stats.hh) and the stateful apps' per-shard counters
 * (src/app) are built from these.
 */

#ifndef HYPERPLANE_STATS_SINGLE_WRITER_HH
#define HYPERPLANE_STATS_SINGLE_WRITER_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "stats/histogram.hh"

namespace hyperplane {
namespace stats {

/** One 64-bit counter or gauge with a single designated writer. */
class WriterCell
{
  public:
    void add(std::uint64_t n = 1)
    {
        v_.store(v_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
    }

    /** Overwrite the value (gauges). */
    void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }

    std::uint64_t read() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/**
 * Single-writer geometric histogram with stats::LogHistogram's binning.
 * record() is owner-thread only; snapshot() may run from any thread and
 * lifts the bins into a LogHistogram.  A concurrent snapshot can catch
 * a record mid-flight (bin bumped, sum not yet) — the result is still a
 * valid histogram, merely one sample blurry, which is fine for
 * operational quantiles.
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
    LogHistogram snapshot() const;

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

} // namespace stats
} // namespace hyperplane

#endif // HYPERPLANE_STATS_SINGLE_WRITER_HH
