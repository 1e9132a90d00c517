#include "stats/single_writer.hh"

#include <cmath>
#include <utility>

#include "sim/logging.hh"

namespace hyperplane {
namespace stats {

HistogramShard::HistogramShard(double base, double growth,
                               unsigned bins)
    : base_(base), growth_(growth), logGrowth_(std::log(growth)),
      bins_(bins)
{
    hp_assert(base > 0.0, "HistogramShard base must be positive");
    hp_assert(growth > 1.0, "HistogramShard growth must exceed 1");
    hp_assert(bins > 0, "HistogramShard needs at least one bin");
}

unsigned
HistogramShard::binFor(double v) const
{
    if (v <= base_)
        return 0;
    auto idx = static_cast<long>(std::log(v / base_) / logGrowth_);
    if (idx < 0)
        idx = 0;
    if (idx >= static_cast<long>(bins_.size()))
        idx = static_cast<long>(bins_.size()) - 1;
    return static_cast<unsigned>(idx);
}

void
HistogramShard::record(double v)
{
    // Single writer: relaxed load+store updates, no RMW.  Readers may
    // observe the fields mid-update; snapshot() tolerates that.
    const std::uint64_t n = count_.load(std::memory_order_relaxed);
    if (n == 0) {
        min_.store(v, std::memory_order_relaxed);
        max_.store(v, std::memory_order_relaxed);
    } else {
        if (v < min_.load(std::memory_order_relaxed))
            min_.store(v, std::memory_order_relaxed);
        if (v > max_.load(std::memory_order_relaxed))
            max_.store(v, std::memory_order_relaxed);
    }
    sum_.store(sum_.load(std::memory_order_relaxed) + v,
               std::memory_order_relaxed);
    auto &bin = bins_[binFor(v)];
    bin.store(bin.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
    count_.store(n + 1, std::memory_order_relaxed);
}

LogHistogram
HistogramShard::snapshot() const
{
    std::vector<std::uint64_t> bins(bins_.size());
    for (std::size_t i = 0; i < bins_.size(); ++i)
        bins[i] = bins_[i].load(std::memory_order_relaxed);
    // fromParts recomputes the count from the bins, so a record racing
    // this snapshot costs at most one sample of blur, never an
    // inconsistent histogram.
    return LogHistogram::fromParts(
        base_, growth_, std::move(bins),
        sum_.load(std::memory_order_relaxed),
        min_.load(std::memory_order_relaxed),
        max_.load(std::memory_order_relaxed));
}

} // namespace stats
} // namespace hyperplane
