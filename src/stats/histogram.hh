/**
 * @file
 * Histogram for latency and value distributions: LogHistogram has
 * geometrically spaced bins (HDR-style), suitable for tail-latency
 * measurement across several orders of magnitude with bounded relative
 * error.
 */

#ifndef HYPERPLANE_STATS_HISTOGRAM_HH
#define HYPERPLANE_STATS_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace hyperplane {
namespace stats {

/**
 * Geometric-bin histogram: bin i covers [base * growth^i, base *
 * growth^(i+1)).  With growth 1.02 the worst-case relative quantile error
 * is ~2%, adequate for reproducing published tail-latency trends.
 */
class LogHistogram
{
  public:
    /**
     * @param base   Smallest binned value (samples below land in bin 0).
     * @param growth Geometric growth factor per bin; must be > 1.
     * @param bins   Number of bins.
     */
    explicit LogHistogram(double base = 1.0, double growth = 1.02,
                          unsigned bins = 2048);

    /**
     * Rebuild a histogram from raw parts — the inverse of the bin
     * accessors, used by shard aggregation (telemetry) to lift a set of
     * lock-free bin counts back into a quantile-capable histogram.
     * count() becomes the sum of @p bins; @p min / @p max / @p sum are
     * trusted as recorded by the single writer.
     */
    static LogHistogram fromParts(double base, double growth,
                                  std::vector<std::uint64_t> bins,
                                  double sum, double min, double max);

    void record(double v);
    void recordN(double v, std::uint64_t n);

    /**
     * Merge @p other into this histogram.  Both must share the exact
     * geometry (base, growth, bin count) — merging is bin-wise
     * addition, so quantiles after a merge are identical to quantiles
     * of one histogram that recorded both sample streams.
     */
    void merge(const LogHistogram &other);

    std::uint64_t count() const { return count_; }
    double mean() const;
    /** Exact (un-binned) sum of recorded samples. */
    double sum() const { return sum_; }
    double min() const { return min_; }
    double max() const { return max_; }

    /** Geometry accessors (merge compatibility checks). */
    double base() const { return base_; }
    double growth() const { return growth_; }
    unsigned numBins() const
    {
        return static_cast<unsigned>(bins_.size());
    }

    /** Per-bin counts, bin i covering [base*growth^i, base*growth^(i+1)). */
    const std::vector<std::uint64_t> &bins() const { return bins_; }

    /** Quantile via bin lower-edge (conservative) with interpolation. */
    double quantile(double q) const;

    /**
     * Export a CDF as (value, cumulative-fraction) pairs, one point per
     * non-empty bin upper edge.
     */
    std::vector<std::pair<double, double>> cdf() const;

    void clear();

  private:
    unsigned binFor(double v) const;

    double base_;
    double logGrowth_;
    double growth_;
    std::vector<std::uint64_t> bins_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace stats
} // namespace hyperplane

#endif // HYPERPLANE_STATS_HISTOGRAM_HH
