#include "telemetry/shard_stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace hyperplane {
namespace telemetry {

const char *
toString(ServerStage s)
{
    switch (s) {
      case ServerStage::RxAdmit:
        return "rx_admit";
      case ServerStage::AdmitDoorbell:
        return "admit_doorbell";
      case ServerStage::QwaitService:
        return "qwait_service";
      case ServerStage::ServiceTx:
        return "service_tx";
      case ServerStage::EndToEnd:
        return "e2e";
    }
    return "?";
}

CounterShards::CounterShards(unsigned shards, unsigned tenants)
    : shards_(shards), tenants_(tenants)
{
    hp_assert(shards > 0, "CounterShards needs at least one shard");
    const std::size_t cells = std::size_t{tenants + 1} * kNumCounters;
    const std::size_t linesPerShard =
        (cells + kCellsPerLine - 1) / kCellsPerLine;
    stride_ = linesPerShard * kCellsPerLine;
    lines_ = std::make_unique<Line[]>(shards_ * linesPerShard);
}

std::uint64_t
CounterShards::total(Counter c) const
{
    std::uint64_t sum = 0;
    for (unsigned s = 0; s < shards_; ++s)
        sum += shardValue(s, c);
    return sum;
}

std::uint64_t
CounterShards::tenantTotal(unsigned tenant, Counter c) const
{
    std::uint64_t sum = 0;
    for (unsigned s = 0; s < shards_; ++s)
        sum += cell(s, tenant, c).read();
    return sum;
}

std::uint64_t
CounterShards::shardValue(unsigned shard, Counter c) const
{
    std::uint64_t sum = 0;
    for (unsigned t = 0; t <= tenants_; ++t)
        sum += cell(shard, t, c).read();
    return sum;
}

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

stats::LogHistogram
HistogramShard::snapshot() const
{
    std::vector<std::uint64_t> bins(bins_.size());
    for (std::size_t i = 0; i < bins_.size(); ++i)
        bins[i] = bins_[i].load(std::memory_order_relaxed);
    // fromParts recomputes the count from the bins, so a record racing
    // this snapshot costs at most one sample of blur, never an
    // inconsistent histogram.
    return stats::LogHistogram::fromParts(
        base_, growth_, std::move(bins),
        sum_.load(std::memory_order_relaxed),
        min_.load(std::memory_order_relaxed),
        max_.load(std::memory_order_relaxed));
}

StageLatencyShards::StageLatencyShards(unsigned shards,
                                       unsigned tenants, double baseNs,
                                       double growth, unsigned bins)
    : shards_(shards), tenants_(std::max(1u, tenants)),
      baseNs_(baseNs), growth_(growth), bins_(bins)
{
    hp_assert(shards > 0, "StageLatencyShards needs >= 1 shard");
    const std::size_t cells = static_cast<std::size_t>(shards_) *
                              kNumServerStages * tenants_;
    for (std::size_t i = 0; i < cells; ++i)
        hists_.emplace_back(baseNs_, growth_, bins_);
}

stats::LogHistogram
StageLatencyShards::aggregate(ServerStage st, unsigned tenant) const
{
    stats::LogHistogram out(baseNs_, growth_, bins_);
    for (unsigned s = 0; s < shards_; ++s)
        out.merge(hists_[index(s, st, tenant)].snapshot());
    return out;
}

stats::LogHistogram
StageLatencyShards::aggregate(ServerStage st) const
{
    stats::LogHistogram out(baseNs_, growth_, bins_);
    for (unsigned s = 0; s < shards_; ++s) {
        for (unsigned t = 0; t < tenants_; ++t)
            out.merge(hists_[index(s, st, t)].snapshot());
    }
    return out;
}

std::uint64_t
StageLatencyShards::samples(ServerStage st) const
{
    std::uint64_t sum = 0;
    for (unsigned s = 0; s < shards_; ++s) {
        for (unsigned t = 0; t < tenants_; ++t)
            sum += hists_[index(s, st, t)].count();
    }
    return sum;
}

} // namespace telemetry
} // namespace hyperplane
