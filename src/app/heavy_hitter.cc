#include "app/heavy_hitter.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hyperplane {
namespace app {

namespace {

/** splitmix64 finalizer: cheap, well-mixed per-row key hashing. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

CountMinSketch::CountMinSketch(unsigned width, unsigned depth,
                               std::uint64_t seed)
    : width_(width), depth_(depth)
{
    hp_assert(width_ > 0 && depth_ > 0, "sketch needs width and depth");
    rows_.assign(static_cast<std::size_t>(width_) * depth_, 0);
    seeds_.reserve(depth_);
    for (unsigned d = 0; d < depth_; ++d)
        seeds_.push_back(mix64(seed ^ (0xabcd0000ULL + d)));
}

std::size_t
CountMinSketch::cell(unsigned row, std::uint32_t key) const
{
    const std::uint64_t h = mix64(seeds_[row] ^ key);
    return static_cast<std::size_t>(row) * width_ + (h % width_);
}

std::uint64_t
CountMinSketch::update(std::uint32_t key, std::uint64_t weight)
{
    std::uint64_t est = ~std::uint64_t{0};
    for (unsigned d = 0; d < depth_; ++d) {
        std::uint64_t &c = rows_[cell(d, key)];
        c += weight;
        est = std::min(est, c);
    }
    total_ += weight;
    return est;
}

std::uint64_t
CountMinSketch::estimate(std::uint32_t key) const
{
    std::uint64_t est = ~std::uint64_t{0};
    for (unsigned d = 0; d < depth_; ++d)
        est = std::min(est, rows_[cell(d, key)]);
    return est;
}

void
CountMinSketch::clear()
{
    std::fill(rows_.begin(), rows_.end(), 0);
    total_ = 0;
}

HeavyHitterApp::HeavyHitterApp(const AppConfig &cfg) : cfg_(cfg)
{
    hp_assert(cfg_.numShards > 0, "need at least one shard");
    shards_.reserve(cfg_.numShards);
    for (unsigned s = 0; s < cfg_.numShards; ++s) {
        shards_.push_back(std::make_unique<Shard>(
            cfg_.sketchWidth, cfg_.sketchDepth, cfg_.seed ^ (s * 131)));
    }
}

AppResult
HeavyHitterApp::handle(unsigned shard, const AppRequest &req,
                       std::uint8_t *out, std::size_t outCap)
{
    Shard &s = *shards_[shard % shards_.size()];

    const auto m = decodeHhRequest(req.payload, req.payloadLen);
    if (!m) {
        s.decodeErrors.add();
        return AppResult{};
    }

    AppResult res;
    res.opCost = cfg_.sketchDepth;
    const std::uint64_t est = s.sketch.update(m->key, m->weight);
    s.updates.add();
    s.totalWeight.set(s.sketch.totalWeight());

    HhResponse resp;
    resp.estimate = est;
    const auto it = findLive(s.promoted, m->key, req.nowNs,
                             cfg_.idleTimeoutNs, s.evictions);
    if (it != s.promoted.end()) {
        // Already promoted: the exact table carries the key from here.
        it->second.weight += m->weight;
        it->second.lastSeenNs = req.nowNs;
        s.hotHits.add();
        resp.hot = 1;
        ++res.opCost;
    } else if (est >= cfg_.promoteThreshold) {
        if (s.promoted.size() >= cfg_.maxPromoted) {
            // Full table: evict the smallest aggregate, which a true
            // heavy hitter will immediately out-weigh.
            auto victim = s.promoted.begin();
            for (auto pit = s.promoted.begin(); pit != s.promoted.end();
                 ++pit) {
                if (pit->second.weight < victim->second.weight)
                    victim = pit;
            }
            s.promoted.erase(victim);
            s.evictions.add();
            res.opCost += 4;
        }
        s.promoted.emplace(m->key, Promoted{est, req.nowNs});
        s.promotions.add();
        resp.hot = 1;
        ++res.opCost;
    }

    sweepAmortized(s.promoted, s.lastSweepNs, req.nowNs, cfg_.idleTimeoutNs,
                   s.evictions);
    s.hotFlows.set(s.promoted.size());

    res.payloadLen =
        static_cast<std::uint32_t>(encode(resp, out, outCap));
    res.ok = res.payloadLen != 0;
    return res;
}

void
HeavyHitterApp::registerStats(stats::Registry &reg,
                              const std::string &prefix)
{
    registerShardCells(reg, prefix, shards_,
                       {{".updates", &Shard::updates},
                        {".promotions", &Shard::promotions},
                        {".hot_flows", &Shard::hotFlows},
                        {".hot_hits", &Shard::hotHits},
                        {".total_weight", &Shard::totalWeight},
                        {".decode_errors", &Shard::decodeErrors}});
}

} // namespace app
} // namespace hyperplane
