#include "stats/histogram.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace hyperplane {
namespace stats {

LogHistogram::LogHistogram(double base, double growth, unsigned bins)
    : base_(base), logGrowth_(std::log(growth)), growth_(growth),
      bins_(bins, 0)
{
    hp_assert(base > 0.0, "LogHistogram base must be positive");
    hp_assert(growth > 1.0, "LogHistogram growth must exceed 1");
    hp_assert(bins > 0, "LogHistogram needs at least one bin");
}

LogHistogram
LogHistogram::fromParts(double base, double growth,
                        std::vector<std::uint64_t> bins, double sum,
                        double min, double max)
{
    hp_assert(!bins.empty(), "fromParts needs at least one bin");
    LogHistogram h(base, growth,
                   static_cast<unsigned>(bins.size()));
    std::uint64_t count = 0;
    for (std::uint64_t b : bins)
        count += b;
    h.bins_ = std::move(bins);
    h.count_ = count;
    h.sum_ = sum;
    h.min_ = count ? min : 0.0;
    h.max_ = count ? max : 0.0;
    return h;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    hp_assert(base_ == other.base_ && growth_ == other.growth_ &&
                  bins_.size() == other.bins_.size(),
              "LogHistogram::merge requires identical geometry");
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    for (std::size_t i = 0; i < bins_.size(); ++i)
        bins_[i] += other.bins_[i];
    count_ += other.count_;
    sum_ += other.sum_;
}

unsigned
LogHistogram::binFor(double v) const
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
LogHistogram::record(double v)
{
    recordN(v, 1);
}

void
LogHistogram::recordN(double v, std::uint64_t n)
{
    if (n == 0)
        return;
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    count_ += n;
    sum_ += v * static_cast<double>(n);
    bins_[binFor(v)] += n;
}

double
LogHistogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
LogHistogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto target =
        static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        if (seen + bins_[i] > target) {
            const double low = base_ * std::pow(growth_, i);
            const double frac = bins_[i] == 0
                ? 0.0
                : static_cast<double>(target - seen) /
                      static_cast<double>(bins_[i]);
            const double val = low * std::pow(growth_, frac);
            return std::clamp(val, min_, max_);
        }
        seen += bins_[i];
    }
    return max_;
}

std::vector<std::pair<double, double>>
LogHistogram::cdf() const
{
    std::vector<std::pair<double, double>> out;
    if (count_ == 0)
        return out;
    std::uint64_t cum = 0;
    const auto total = static_cast<double>(count_);
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        if (bins_[i] == 0)
            continue;
        cum += bins_[i];
        const double upper = base_ * std::pow(growth_, i + 1);
        out.emplace_back(std::min(upper, max_),
                         static_cast<double>(cum) / total);
    }
    return out;
}

void
LogHistogram::clear()
{
    std::fill(bins_.begin(), bins_.end(), 0);
    count_ = 0;
    sum_ = min_ = max_ = 0.0;
}

} // namespace stats
} // namespace hyperplane
