#include "app/conntrack_lb.hh"

#include "net/checksum.hh"
#include "net/headers.hh"
#include "sim/logging.hh"

namespace hyperplane {
namespace app {

ConntrackLbApp::ConntrackLbApp(const AppConfig &cfg) : cfg_(cfg)
{
    hp_assert(cfg_.numShards > 0, "need at least one shard");
    hp_assert(cfg_.numBackends > 0, "need at least one backend");
    shards_.reserve(cfg_.numShards);
    for (unsigned s = 0; s < cfg_.numShards; ++s)
        shards_.push_back(std::make_unique<Shard>());
}

std::uint64_t
ConntrackLbApp::connKey(const CtRequest &m)
{
    // srcIp dominates the high half; ports+dstIp fold into the low
    // half.  Collisions across distinct tuples are possible but
    // harmless (they just share an entry's backend/seq tracking).
    return (static_cast<std::uint64_t>(m.srcIp) << 32) ^
           (static_cast<std::uint64_t>(m.srcPort) << 48) ^
           (static_cast<std::uint64_t>(m.dstPort) << 16) ^ m.dstIp;
}

std::uint32_t
ConntrackLbApp::pickBackend(const CtRequest &m) const
{
    // Hash of the full tuple: a connection that expires and re-opens
    // deterministically returns to the same backend.
    std::uint8_t key[12];
    net::putBe32(key, m.srcIp);
    net::putBe32(key + 4, m.dstIp);
    net::putBe16(key + 8, m.srcPort);
    net::putBe16(key + 10, m.dstPort);
    return net::crc32c(key, sizeof(key)) % cfg_.numBackends;
}

AppResult
ConntrackLbApp::handle(unsigned shard, const AppRequest &req,
                       std::uint8_t *out, std::size_t outCap)
{
    Shard &s = *shards_[shard % shards_.size()];

    const auto m = decodeCtRequest(req.payload, req.payloadLen);
    if (!m) {
        s.decodeErrors.add();
        return AppResult{};
    }

    AppResult res;
    res.opCost = 1; // the table lookup
    const std::uint64_t key = connKey(*m);

    CtResponse resp;
    auto it = findLive(s.conns, key, req.nowNs, cfg_.idleTimeoutNs,
                       s.expiries);
    switch (m->verb) {
      case CtVerb::Open: {
        if (it == s.conns.end()) {
            if (s.conns.size() >= cfg_.maxEntriesPerShard) {
                s.overflows.add();
                resp.backend = pickBackend(*m);
                resp.expectedSeq = m->seqNo + 1;
                resp.state = 0;
                break;
            }
            it = s.conns.emplace(key, Entry{}).first;
            it->second.backend = pickBackend(*m);
            s.opens.add();
            res.opCost += 2; // hash + insert
        }
        it->second.expectedSeq = m->seqNo + 1;
        it->second.lastSeenNs = req.nowNs;
        resp.backend = it->second.backend;
        resp.expectedSeq = it->second.expectedSeq;
        resp.state = 1;
        break;
      }
      case CtVerb::Data: {
        if (it == s.conns.end()) {
            // The Open was lost (UDP): recreate rather than drop.
            s.misses.add();
            it = s.conns.emplace(key, Entry{}).first;
            it->second.backend = pickBackend(*m);
            it->second.expectedSeq = m->seqNo;
            s.opens.add();
            res.opCost += 2;
        }
        if (m->seqNo != it->second.expectedSeq)
            s.outOfOrder.add();
        it->second.expectedSeq = m->seqNo + 1;
        it->second.lastSeenNs = req.nowNs;
        resp.backend = it->second.backend;
        resp.expectedSeq = it->second.expectedSeq;
        resp.state = 1;
        break;
      }
      case CtVerb::Close: {
        if (it == s.conns.end()) {
            s.misses.add();
            resp.backend = pickBackend(*m);
            resp.expectedSeq = m->seqNo + 1;
            resp.state = 0;
        } else {
            resp.backend = it->second.backend;
            resp.expectedSeq = m->seqNo + 1;
            resp.state = 0;
            s.conns.erase(it);
            s.closes.add();
            ++res.opCost;
        }
        break;
      }
    }

    sweepAmortized(s.conns, s.lastSweepNs, req.nowNs, cfg_.idleTimeoutNs,
                   s.expiries);
    s.active.set(s.conns.size());

    res.payloadLen =
        static_cast<std::uint32_t>(encode(resp, out, outCap));
    res.ok = res.payloadLen != 0;
    return res;
}

void
ConntrackLbApp::registerStats(stats::Registry &reg,
                              const std::string &prefix)
{
    registerShardCells(reg, prefix, shards_,
                       {{".active", &Shard::active},
                        {".opens", &Shard::opens},
                        {".closes", &Shard::closes},
                        {".expiries", &Shard::expiries},
                        {".misses", &Shard::misses},
                        {".out_of_order", &Shard::outOfOrder},
                        {".overflows", &Shard::overflows},
                        {".decode_errors", &Shard::decodeErrors}});
}

} // namespace app
} // namespace hyperplane
