#include "telemetry/shard_stats.hh"

#include <algorithm>

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

StageLatencyShards::StageLatencyShards(unsigned shards,
                                       unsigned tenants)
    : shards_(shards), tenants_(std::max(1u, tenants))
{
    hp_assert(shards > 0, "StageLatencyShards needs >= 1 shard");
    const std::size_t cells = static_cast<std::size_t>(shards_) *
                              kNumServerStages * tenants_;
    for (std::size_t i = 0; i < cells; ++i)
        hists_.emplace_back(kStageHist.baseNs, kStageHist.growth,
                            kStageHist.bins);
}

stats::LogHistogram
StageLatencyShards::aggregate(ServerStage st, unsigned tenant) const
{
    stats::LogHistogram out = emptyHistogram();
    for (unsigned s = 0; s < shards_; ++s)
        out.merge(hists_[index(s, st, tenant)].snapshot());
    return out;
}

stats::LogHistogram
StageLatencyShards::aggregate(ServerStage st) const
{
    stats::LogHistogram out = emptyHistogram();
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
