/**
 * @file
 * Passive RTT telemetry via QUIC-style spin-bit tracking (RFC 9000
 * §17.4; measurement methodology per arXiv 2112.02875).  Each flow
 * carries a one-bit "spin" signal that the client flips once per RTT;
 * the observer timestamps every edge (0->1 or 1->0 transition) and the
 * gap between consecutive edges is one end-to-end RTT sample — zero
 * extra packets, zero payload inspection beyond one bit.
 *
 * Per-flow state is a few words (last spin value, last edge time);
 * samples feed a single-writer log-scale histogram per shard, exported
 * through the registry, so the telemetry plane serves live RTT
 * quantiles.
 */

#ifndef HYPERPLANE_APP_SPIN_RTT_HH
#define HYPERPLANE_APP_SPIN_RTT_HH

#include <unordered_map>
#include <vector>

#include "app/app.hh"
#include "app/shard_table.hh"
#include "stats/histogram.hh"
#include "stats/single_writer.hh"

namespace hyperplane {
namespace app {

/** The sharded spin-bit RTT observer. */
class SpinRttApp : public StatefulHandler
{
  public:
    explicit SpinRttApp(const AppConfig &cfg);

    AppKind kind() const override { return AppKind::SpinRtt; }
    AppResult handle(unsigned shard, const AppRequest &req,
                     std::uint8_t *out, std::size_t outCap) override;
    void registerStats(stats::Registry &reg,
                       const std::string &prefix) override;

    /** Aggregated counters (sums across shards, any thread). */
    std::uint64_t trackedFlows() const
    {
        return sumShards(shards_, &Shard::trackedFlows);
    }
    std::uint64_t edges() const { return sumShards(shards_, &Shard::edges); }
    std::uint64_t samples() const
    {
        return sumShards(shards_, &Shard::samples);
    }
    std::uint64_t expiries() const
    {
        return sumShards(shards_, &Shard::expiries);
    }

    /** Merged RTT histogram across shards (cold path, any thread). */
    stats::LogHistogram rttHistogram() const;

  private:
    struct Flow
    {
        std::uint8_t lastSpin = 0;
        bool seen = false;            ///< first packet initializes
        std::uint64_t lastEdgeNs = 0; ///< 0 until the first edge
        std::uint32_t edges = 0;
        std::uint64_t lastRttNs = 0;
        std::uint64_t lastSeenNs = 0;
    };

    struct Shard
    {
        std::unordered_map<std::uint32_t, Flow> flows;
        stats::HistogramShard rttNs;
        stats::WriterCell trackedFlows; ///< flows.size(), for scrapers
        stats::WriterCell edges;
        stats::WriterCell samples;
        stats::WriterCell expiries;
        stats::WriterCell decodeErrors;
        std::uint64_t lastSweepNs = 0;

        Shard(double base, double growth, unsigned bins)
            : rttNs(base, growth, bins)
        {
        }
    };

    AppConfig cfg_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace app
} // namespace hyperplane

#endif // HYPERPLANE_APP_SPIN_RTT_HH
