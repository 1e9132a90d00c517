/**
 * @file
 * Heavy-hitter detection in the data path: a count-min sketch per
 * shard approximates every key's aggregate weight, and keys whose
 * estimate crosses a threshold are promoted to an exact per-flow table
 * (the sketch filters the long tail; only large aggregates pay for
 * exact state).  The in-dataplane sketch + promotion split follows
 * "Seek and Push" (arXiv 1805.05993).
 *
 * Guarantees of the sketch (the differential test gates both):
 *  - never underestimates: estimate(k) >= true count(k);
 *  - bounded overestimate: each row's error is at most the total
 *    weight landing in the key's counter from other keys, so the
 *    min over depth independent rows concentrates near the truth.
 */

#ifndef HYPERPLANE_APP_HEAVY_HITTER_HH
#define HYPERPLANE_APP_HEAVY_HITTER_HH

#include <unordered_map>
#include <vector>

#include "app/app.hh"
#include "app/shard_table.hh"

namespace hyperplane {
namespace app {

/** Count-min sketch over u32 keys (single writer: the shard's owner). */
class CountMinSketch
{
  public:
    CountMinSketch(unsigned width, unsigned depth, std::uint64_t seed);

    /** Add @p weight to @p key. @return the key's new estimate. */
    std::uint64_t update(std::uint32_t key, std::uint64_t weight);

    /** Min-over-rows estimate of the key's aggregate weight. */
    std::uint64_t estimate(std::uint32_t key) const;

    /** Total weight of every update. */
    std::uint64_t totalWeight() const { return total_; }

    unsigned width() const { return width_; }
    unsigned depth() const { return depth_; }

    void clear();

  private:
    std::size_t cell(unsigned row, std::uint32_t key) const;

    unsigned width_;
    unsigned depth_;
    std::vector<std::uint64_t> rows_;  ///< depth_ x width_ counters
    std::vector<std::uint64_t> seeds_; ///< per-row hash seeds
    std::uint64_t total_ = 0;
};

/** The sharded heavy-hitter handler. */
class HeavyHitterApp : public StatefulHandler
{
  public:
    explicit HeavyHitterApp(const AppConfig &cfg);

    AppKind kind() const override { return AppKind::HeavyHitter; }
    AppResult handle(unsigned shard, const AppRequest &req,
                     std::uint8_t *out, std::size_t outCap) override;
    void registerStats(stats::Registry &reg,
                       const std::string &prefix) override;

    /** Aggregated counters (sums across shards, any thread). */
    std::uint64_t updates() const
    {
        return sumShards(shards_, &Shard::updates);
    }
    std::uint64_t promotions() const
    {
        return sumShards(shards_, &Shard::promotions);
    }
    std::uint64_t hotFlows() const
    {
        return sumShards(shards_, &Shard::hotFlows);
    }
    std::uint64_t hotHits() const
    {
        return sumShards(shards_, &Shard::hotHits);
    }

  private:
    struct Promoted
    {
        std::uint64_t weight = 0;
        std::uint64_t lastSeenNs = 0;
    };

    struct Shard
    {
        CountMinSketch sketch;
        std::unordered_map<std::uint32_t, Promoted> promoted;
        stats::WriterCell hotFlows;    ///< promoted.size(), for scrapers
        stats::WriterCell totalWeight; ///< sketch.totalWeight(), likewise
        stats::WriterCell updates;
        stats::WriterCell promotions;
        stats::WriterCell evictions;
        stats::WriterCell hotHits;
        stats::WriterCell decodeErrors;
        std::uint64_t lastSweepNs = 0;

        Shard(unsigned width, unsigned depth, std::uint64_t seed)
            : sketch(width, depth, seed)
        {
        }
    };

    AppConfig cfg_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace app
} // namespace hyperplane

#endif // HYPERPLANE_APP_HEAVY_HITTER_HH
