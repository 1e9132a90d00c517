#include "app/spin_rtt.hh"

#include "sim/logging.hh"

namespace hyperplane {
namespace app {

SpinRttApp::SpinRttApp(const AppConfig &cfg) : cfg_(cfg)
{
    hp_assert(cfg_.numShards > 0, "need at least one shard");
    shards_.reserve(cfg_.numShards);
    for (unsigned s = 0; s < cfg_.numShards; ++s) {
        shards_.push_back(std::make_unique<Shard>(
            cfg_.rttHistBaseNs, cfg_.rttHistGrowth, cfg_.rttHistBins));
    }
}

AppResult
SpinRttApp::handle(unsigned shard, const AppRequest &req,
                   std::uint8_t *out, std::size_t outCap)
{
    Shard &s = *shards_[shard % shards_.size()];

    const auto m = decodeSpinRequest(req.payload, req.payloadLen);
    if (!m) {
        s.decodeErrors.add();
        return AppResult{};
    }

    AppResult res;
    res.opCost = 1; // the flow lookup
    // A flow back from idling past the timeout starts over.
    auto it = findLive(s.flows, req.flowId, req.nowNs, cfg_.flowTimeoutNs,
                       s.expiries);
    if (it == s.flows.end())
        it = s.flows.emplace(req.flowId, Flow{}).first;
    Flow &f = it->second;

    if (!f.seen) {
        // First packet of the flow: record the value, no edge yet.
        f.seen = true;
        f.lastSpin = m->spin;
        res.opCost += 1;
    } else if (m->spin != f.lastSpin) {
        // An edge.  The gap between consecutive edges is one RTT.
        f.lastSpin = m->spin;
        ++f.edges;
        s.edges.add();
        if (f.lastEdgeNs != 0 && req.nowNs > f.lastEdgeNs) {
            f.lastRttNs = req.nowNs - f.lastEdgeNs;
            s.rttNs.record(static_cast<double>(f.lastRttNs));
            s.samples.add();
            res.opCost += 1;
        }
        f.lastEdgeNs = req.nowNs;
    }
    f.lastSeenNs = req.nowNs;

    // The sweep never erases f: it was seen just now.
    sweepAmortized(s.flows, s.lastSweepNs, req.nowNs, cfg_.flowTimeoutNs,
                   s.expiries);
    s.trackedFlows.set(s.flows.size());

    SpinResponse resp;
    resp.spin = f.lastSpin;
    resp.edges = f.edges;
    resp.lastRttNs = f.lastRttNs;
    res.payloadLen =
        static_cast<std::uint32_t>(encode(resp, out, outCap));
    res.ok = res.payloadLen != 0;
    return res;
}

stats::LogHistogram
SpinRttApp::rttHistogram() const
{
    stats::LogHistogram merged(cfg_.rttHistBaseNs, cfg_.rttHistGrowth,
                               cfg_.rttHistBins);
    for (const auto &sp : shards_)
        merged.merge(sp->rttNs.snapshot());
    return merged;
}

void
SpinRttApp::registerStats(stats::Registry &reg,
                          const std::string &prefix)
{
    registerShardCells(reg, prefix, shards_,
                       {{".tracked_flows", &Shard::trackedFlows},
                        {".edges", &Shard::edges},
                        {".samples", &Shard::samples},
                        {".expiries", &Shard::expiries},
                        {".decode_errors", &Shard::decodeErrors}});
    reg.addScalar(prefix + ".rtt_p50_ns", [this] {
        return rttHistogram().quantile(0.50);
    });
    reg.addScalar(prefix + ".rtt_p99_ns", [this] {
        return rttHistogram().quantile(0.99);
    });
}

} // namespace app
} // namespace hyperplane
