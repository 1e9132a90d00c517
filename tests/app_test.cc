/**
 * @file
 * Tests for the stateful application suite (src/app) and its simulator
 * wrapper: a randomized differential check of the count-min sketch
 * against an exact counter, connection lifecycle/expiry/ownership for
 * the conntrack LB, spin-bit edge/RTT accounting, fail-closed codec
 * round-trips, and sim-side determinism of the workload wrapper.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "app/app.hh"
#include "app/conntrack_lb.hh"
#include "app/heavy_hitter.hh"
#include "app/spin_rtt.hh"
#include "dp/sdp_system.hh"
#include "sim/rng.hh"
#include "stats/registry.hh"
#include "workloads/stateful_app.hh"
#include "workloads/workload.hh"

namespace hyperplane {
namespace app {
namespace {

// ---------------------------------------------------------------------
// Count-min sketch: differential vs an exact counter
// ---------------------------------------------------------------------

TEST(CountMinSketch, DifferentialNeverUnderestimatesBoundedOver)
{
    constexpr unsigned width = 1024;
    constexpr unsigned depth = 4;
    CountMinSketch cms(width, depth, 0xc0ffee);
    std::unordered_map<std::uint32_t, std::uint64_t> exact;

    // Skewed stream: a few hundred hot keys over a long tail.
    Rng rng(0xd1ff);
    for (int i = 0; i < 50000; ++i) {
        const bool hot = rng.uniformInt(4) == 0;
        const std::uint32_t key = hot ? rng.uniformInt(32)
                                      : 32 + rng.uniformInt(4096);
        const std::uint64_t w = 1 + rng.uniformInt(16);
        const std::uint64_t est = cms.update(key, w);
        exact[key] += w;
        // update() must report the post-update estimate.
        ASSERT_EQ(est, cms.estimate(key));
    }

    std::uint64_t total = 0;
    for (const auto &[k, v] : exact)
        total += v;
    ASSERT_EQ(cms.totalWeight(), total);

    // Guarantee 1: never underestimate.  Guarantee 2: the overestimate
    // stays near the CMS bound N/width per row; min-over-depth rows
    // concentrates well below a generous multiple of it.
    const std::uint64_t rowBound = total / width; // ~expected row error
    std::uint64_t worst = 0;
    long double sumErr = 0;
    for (const auto &[k, v] : exact) {
        const std::uint64_t est = cms.estimate(k);
        ASSERT_GE(est, v) << "key " << k;
        const std::uint64_t err = est - v;
        worst = std::max(worst, err);
        sumErr += err;
    }
    const double meanErr =
        static_cast<double>(sumErr / exact.size());
    EXPECT_LE(meanErr, 2.0 * rowBound);
    EXPECT_LE(worst, 32 * rowBound);

    // Unseen keys may collide with real weight but never exceed the
    // same bound; clear() must zero everything.
    EXPECT_LE(cms.estimate(0xfffffff0u), 32 * rowBound);
    cms.clear();
    EXPECT_EQ(cms.totalWeight(), 0u);
    EXPECT_EQ(cms.estimate(5), 0u);
}

// ---------------------------------------------------------------------
// Heavy-hitter handler: promotion and per-shard isolation
// ---------------------------------------------------------------------

AppRequest
makeReq(std::uint32_t flowId, std::uint64_t seq, std::uint64_t nowNs,
        const std::uint8_t *payload, std::size_t len)
{
    AppRequest r;
    r.flowId = flowId;
    r.seq = seq;
    r.nowNs = nowNs;
    r.payload = payload;
    r.payloadLen = static_cast<std::uint32_t>(len);
    return r;
}

TEST(HeavyHitterApp, PromotesHotKeysAndFlagsThem)
{
    AppConfig cfg;
    cfg.numShards = 2;
    cfg.promoteThreshold = 1000;
    cfg.maxPromoted = 8;
    HeavyHitterApp hh(cfg);

    std::uint8_t payload[HhRequest::wireSize];
    std::uint8_t out[64];

    // One hot key crosses the threshold; tail keys must not.
    bool sawHot = false;
    for (int i = 0; i < 50; ++i) {
        HhRequest m;
        m.key = 7;
        m.weight = 100;
        ASSERT_EQ(encode(m, payload, sizeof(payload)),
                  HhRequest::wireSize);
        const AppResult res = hh.handle(
            0, makeReq(7, i, 1000 + i, payload, sizeof(payload)), out,
            sizeof(out));
        ASSERT_TRUE(res.ok);
        ASSERT_EQ(res.payloadLen, HhResponse::wireSize);
        const auto resp = decodeHhResponse(out, res.payloadLen);
        ASSERT_TRUE(resp.has_value());
        EXPECT_GE(resp->estimate, 100ull * (i + 1));
        if (resp->hot)
            sawHot = true;
    }
    EXPECT_TRUE(sawHot);
    EXPECT_EQ(hh.promotions(), 1u);
    EXPECT_EQ(hh.hotFlows(), 1u);
    EXPECT_GT(hh.hotHits(), 0u);

    for (std::uint32_t k = 100; k < 120; ++k) {
        HhRequest m;
        m.key = k;
        m.weight = 1;
        encode(m, payload, sizeof(payload));
        const AppResult res = hh.handle(
            1, makeReq(k, 0, 2000, payload, sizeof(payload)), out,
            sizeof(out));
        ASSERT_TRUE(res.ok);
        const auto resp = decodeHhResponse(out, res.payloadLen);
        ASSERT_TRUE(resp.has_value());
        EXPECT_EQ(resp->hot, 0u);
    }
    // The tail updated shard 1's sketch but promoted nothing there.
    EXPECT_EQ(hh.promotions(), 1u);

    // Garbage payload fails closed.
    const AppResult bad =
        hh.handle(0, makeReq(1, 0, 1, payload, 3), out, sizeof(out));
    EXPECT_FALSE(bad.ok);
}

TEST(HeavyHitterApp, PromotionTableCapacityIsBounded)
{
    AppConfig cfg;
    cfg.numShards = 1;
    cfg.promoteThreshold = 10;
    cfg.maxPromoted = 4;
    HeavyHitterApp hh(cfg);

    std::uint8_t payload[HhRequest::wireSize];
    std::uint8_t out[64];
    for (std::uint32_t k = 0; k < 64; ++k) {
        HhRequest m;
        m.key = k;
        m.weight = 50 + k; // all promote; later keys outweigh earlier
        encode(m, payload, sizeof(payload));
        ASSERT_TRUE(hh.handle(0, makeReq(k, 0, 10, payload,
                                         sizeof(payload)),
                              out, sizeof(out))
                        .ok);
    }
    EXPECT_LE(hh.hotFlows(), cfg.maxPromoted);
    EXPECT_GT(hh.promotions(), 0u);
}

// ---------------------------------------------------------------------
// Conntrack LB: lifecycle, expiry, stable backends, shard ownership
// ---------------------------------------------------------------------

std::size_t
encodeCt(const CtRequest &m, std::uint8_t *buf, std::size_t cap)
{
    const std::size_t n = encode(m, buf, cap);
    EXPECT_EQ(n, CtRequest::wireSize);
    return n;
}

TEST(ConntrackLbApp, ConnectionLifecycle)
{
    AppConfig cfg;
    cfg.numShards = 2;
    ConntrackLbApp ct(cfg);

    CtRequest open = ctRequestFor(42, 0);
    ASSERT_EQ(open.verb, CtVerb::Open);
    std::uint8_t payload[CtRequest::wireSize];
    std::uint8_t out[64];

    encodeCt(open, payload, sizeof(payload));
    AppResult res = ct.handle(0, makeReq(42, 0, 1000, payload,
                                         sizeof(payload)),
                              out, sizeof(out));
    ASSERT_TRUE(res.ok);
    auto resp = decodeCtResponse(out, res.payloadLen);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->state, 1u);
    const std::uint32_t backend = resp->backend;
    EXPECT_LT(backend, cfg.numBackends);
    EXPECT_EQ(ct.opens(), 1u);
    EXPECT_EQ(ct.activeConnections(), 1u);

    // In-order data keeps the entry and the backend.
    for (std::uint64_t s = 1; s < 63; ++s) {
        const CtRequest data = ctRequestFor(42, s);
        ASSERT_EQ(data.verb, CtVerb::Data);
        encodeCt(data, payload, sizeof(payload));
        res = ct.handle(0, makeReq(42, s, 1000 + s, payload,
                                   sizeof(payload)),
                        out, sizeof(out));
        ASSERT_TRUE(res.ok);
        resp = decodeCtResponse(out, res.payloadLen);
        ASSERT_TRUE(resp.has_value());
        EXPECT_EQ(resp->backend, backend) << "seq " << s;
        EXPECT_EQ(resp->state, 1u);
    }
    EXPECT_EQ(ct.outOfOrder(), 0u);

    // Close tears the entry down.
    const CtRequest close = ctRequestFor(42, 63);
    ASSERT_EQ(close.verb, CtVerb::Close);
    encodeCt(close, payload, sizeof(payload));
    res = ct.handle(0, makeReq(42, 63, 2000, payload, sizeof(payload)),
                    out, sizeof(out));
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(ct.closes(), 1u);
    EXPECT_EQ(ct.activeConnections(), 0u);

    // Re-open lands on the same backend (tuple-hashed selection).
    encodeCt(ctRequestFor(42, 64), payload, sizeof(payload));
    res = ct.handle(0, makeReq(42, 64, 3000, payload, sizeof(payload)),
                    out, sizeof(out));
    ASSERT_TRUE(res.ok);
    resp = decodeCtResponse(out, res.payloadLen);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->backend, backend);
}

TEST(ConntrackLbApp, DataMissRecreatesAndSeqGapsCount)
{
    AppConfig cfg;
    cfg.numShards = 1;
    ConntrackLbApp ct(cfg);
    std::uint8_t payload[CtRequest::wireSize];
    std::uint8_t out[64];

    // Data for an unknown connection (lost Open): tolerated, counted.
    encodeCt(ctRequestFor(7, 5), payload, sizeof(payload));
    AppResult res = ct.handle(0, makeReq(7, 5, 100, payload,
                                         sizeof(payload)),
                              out, sizeof(out));
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(ct.misses(), 1u);
    EXPECT_EQ(ct.activeConnections(), 1u);

    // A sequence gap is out-of-order, not fatal.
    encodeCt(ctRequestFor(7, 9), payload, sizeof(payload));
    res = ct.handle(0, makeReq(7, 9, 200, payload, sizeof(payload)),
                    out, sizeof(out));
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(ct.outOfOrder(), 1u);

    // Close for a connection that was never opened: a miss.
    encodeCt(ctRequestFor(8, 63), payload, sizeof(payload));
    res = ct.handle(0, makeReq(8, 63, 300, payload, sizeof(payload)),
                    out, sizeof(out));
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(ct.misses(), 2u);
}

TEST(ConntrackLbApp, IdleEntriesExpire)
{
    // Expiry happens inside handle(), per shard: a request finds its
    // own idle entry expired, and the amortized shard sweep reaps the
    // rest of the shard.  Nothing outside the data path sweeps.
    AppConfig cfg;
    cfg.numShards = 2;
    cfg.idleTimeoutNs = 1000;
    ConntrackLbApp ct(cfg);
    std::uint8_t payload[CtRequest::wireSize];
    std::uint8_t out[64];
    const auto send = [&](unsigned shard, std::uint32_t flow,
                          std::uint64_t seq, std::uint64_t nowNs) {
        encodeCt(ctRequestFor(flow, seq), payload, sizeof(payload));
        const AppResult res = ct.handle(
            shard, makeReq(flow, seq, nowNs, payload, sizeof(payload)),
            out, sizeof(out));
        EXPECT_TRUE(res.ok);
        return decodeCtResponse(out, res.payloadLen);
    };

    send(0, 1, 0, 100);
    send(1, 2, 0, 100);
    EXPECT_EQ(ct.activeConnections(), 2u);

    // Idle for exactly the timeout: still live.
    auto resp = send(0, 1, 1, 100 + cfg.idleTimeoutNs);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(ct.expiries(), 0u);
    EXPECT_EQ(ct.misses(), 0u);

    // Back after idling past the timeout: the entry expired, so the
    // flow gets fresh state (a miss that re-creates it), counted as
    // one expiry.  Shard 1 saw no traffic and still holds flow 2.
    const std::uint64_t late = 100 + 2 * cfg.idleTimeoutNs + 1;
    resp = send(0, 1, 2, late);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->state, 1u);
    EXPECT_EQ(resp->expectedSeq, 3u);
    EXPECT_EQ(ct.expiries(), 1u);
    EXPECT_EQ(ct.misses(), 1u);
    EXPECT_EQ(ct.opens(), 3u);
    EXPECT_EQ(ct.activeConnections(), 2u);

    // Shard 1's next request sweeps it: flow 2 expires too.
    send(1, 3, 0, late);
    EXPECT_EQ(ct.expiries(), 2u);
    EXPECT_EQ(ct.activeConnections(), 2u);
}

TEST(ConntrackLbApp, ShardsAreIndependentUnderConcurrency)
{
    // Flow-sharded ownership: four threads hammer four distinct shards
    // concurrently while a scraper reads every registry value.  TSan
    // gates the absence of races (shards take no locks, scrapers read
    // single-writer cells); the totals gate that no shard lost updates.
    AppConfig cfg;
    cfg.numShards = 4;
    ConntrackLbApp ct(cfg);
    constexpr int perShard = 4000;
    stats::Registry reg;
    ct.registerStats(reg, "conntrack");
    std::atomic<bool> writing{true};
    std::thread scraper([&] {
        do {
            for (const std::string &path : reg.paths())
                (void)reg.value(path);
        } while (writing.load());
    });

    std::vector<std::thread> threads;
    for (unsigned shard = 0; shard < 4; ++shard) {
        threads.emplace_back([&ct, shard]() {
            std::uint8_t payload[CtRequest::wireSize];
            std::uint8_t out[64];
            for (int i = 0; i < perShard; ++i) {
                const std::uint32_t flow = 1000 * shard + (i % 50);
                const std::uint64_t seq = i / 50;
                const std::size_t n = encode(ctRequestFor(flow, seq),
                                             payload, sizeof(payload));
                ct.handle(shard,
                          makeReq(flow, seq, 10 * i + 1, payload, n),
                          out, sizeof(out));
            }
        });
    }
    for (auto &t : threads)
        t.join();
    writing.store(false);
    scraper.join();
    // Each flow runs seq 0..79: Open at 0, Close at 63, re-Open at 64
    // — so two opens and one close per flow, and every flow is live at
    // the end.  Exact totals prove no shard lost an update.
    EXPECT_EQ(ct.opens(), 4u * 50u * 2u);
    EXPECT_EQ(ct.closes(), 4u * 50u);
    EXPECT_EQ(ct.outOfOrder(), 0u);
    EXPECT_EQ(ct.activeConnections(), 4u * 50u);
    EXPECT_EQ(reg.value("conntrack.opens"), 4.0 * 50 * 2);
    EXPECT_EQ(reg.value("conntrack.active"), 4.0 * 50);
}

// ---------------------------------------------------------------------
// Spin-bit RTT observer
// ---------------------------------------------------------------------

std::size_t
encodeSpin(std::uint8_t spin, std::uint8_t *buf, std::size_t cap)
{
    SpinRequest m;
    m.spin = spin;
    return encode(m, buf, cap);
}

TEST(SpinRttApp, EdgesMakeRttSamples)
{
    AppConfig cfg;
    cfg.numShards = 1;
    SpinRttApp app(cfg);
    std::uint8_t payload[SpinRequest::wireSize];
    std::uint8_t out[64];

    // First packet initializes, no edge.
    encodeSpin(0, payload, sizeof(payload));
    AppResult res = app.handle(0, makeReq(9, 0, 1000, payload,
                                          sizeof(payload)),
                               out, sizeof(out));
    ASSERT_TRUE(res.ok);
    auto resp = decodeSpinResponse(out, res.payloadLen);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->edges, 0u);
    EXPECT_EQ(app.edges(), 0u);

    // First flip: an edge, but no RTT yet (needs two edges).
    encodeSpin(1, payload, sizeof(payload));
    res = app.handle(0, makeReq(9, 1, 2000, payload, sizeof(payload)),
                     out, sizeof(out));
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(app.edges(), 1u);
    EXPECT_EQ(app.samples(), 0u);

    // Second flip 250us later: one RTT sample of exactly the gap.
    encodeSpin(0, payload, sizeof(payload));
    res = app.handle(0, makeReq(9, 2, 2000 + 250000, payload,
                                sizeof(payload)),
                     out, sizeof(out));
    ASSERT_TRUE(res.ok);
    resp = decodeSpinResponse(out, res.payloadLen);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(app.edges(), 2u);
    EXPECT_EQ(app.samples(), 1u);
    EXPECT_EQ(resp->lastRttNs, 250000u);
    EXPECT_EQ(resp->edges, 2u);

    // Unchanged spin adds no edge.
    encodeSpin(0, payload, sizeof(payload));
    app.handle(0, makeReq(9, 3, 2600000, payload, sizeof(payload)),
               out, sizeof(out));
    EXPECT_EQ(app.edges(), 2u);

    EXPECT_EQ(app.trackedFlows(), 1u);

    // Flow 10 shows up once and never returns.
    app.handle(0, makeReq(10, 0, 2600000, payload, sizeof(payload)), out,
               sizeof(out));
    EXPECT_EQ(app.trackedFlows(), 2u);

    // Flow 9 comes back after idling past the timeout: fresh state (no
    // edges, no RTT), counted as one expiry.  The same request's
    // amortized shard sweep reaps flow 10.
    encodeSpin(1, payload, sizeof(payload));
    res = app.handle(0, makeReq(9, 4, 2600000 + cfg.flowTimeoutNs + 1,
                                payload, sizeof(payload)),
                     out, sizeof(out));
    ASSERT_TRUE(res.ok);
    resp = decodeSpinResponse(out, res.payloadLen);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->edges, 0u);
    EXPECT_EQ(resp->lastRttNs, 0u);
    EXPECT_EQ(app.expiries(), 2u);
    EXPECT_EQ(app.trackedFlows(), 1u);
    EXPECT_EQ(app.edges(), 2u);

    // The histogram kept the sample even after flow expiry.
    EXPECT_EQ(app.rttHistogram().count(), 1u);
}

// ---------------------------------------------------------------------
// Codecs: round-trips and fail-closed decoding
// ---------------------------------------------------------------------

TEST(AppCodec, RoundTripsAllMessages)
{
    std::uint8_t buf[64];

    HhRequest hq;
    hq.key = 0xdeadbeef;
    hq.weight = 12345;
    ASSERT_EQ(encode(hq, buf, sizeof(buf)), HhRequest::wireSize);
    auto hq2 = decodeHhRequest(buf, HhRequest::wireSize);
    ASSERT_TRUE(hq2.has_value());
    EXPECT_EQ(hq2->key, hq.key);
    EXPECT_EQ(hq2->weight, hq.weight);

    HhResponse hr;
    hr.estimate = 0x1122334455667788ULL;
    hr.hot = 1;
    ASSERT_EQ(encode(hr, buf, sizeof(buf)), HhResponse::wireSize);
    auto hr2 = decodeHhResponse(buf, HhResponse::wireSize);
    ASSERT_TRUE(hr2.has_value());
    EXPECT_EQ(hr2->estimate, hr.estimate);
    EXPECT_EQ(hr2->hot, 1u);

    CtRequest cq;
    cq.verb = CtVerb::Data;
    cq.srcIp = 0x0a000001;
    cq.dstIp = 0xc0a80102;
    cq.srcPort = 1234;
    cq.dstPort = 443;
    cq.seqNo = 99;
    ASSERT_EQ(encode(cq, buf, sizeof(buf)), CtRequest::wireSize);
    auto cq2 = decodeCtRequest(buf, CtRequest::wireSize);
    ASSERT_TRUE(cq2.has_value());
    EXPECT_EQ(cq2->verb, cq.verb);
    EXPECT_EQ(cq2->srcIp, cq.srcIp);
    EXPECT_EQ(cq2->dstIp, cq.dstIp);
    EXPECT_EQ(cq2->srcPort, cq.srcPort);
    EXPECT_EQ(cq2->dstPort, cq.dstPort);
    EXPECT_EQ(cq2->seqNo, cq.seqNo);

    CtResponse cr;
    cr.backend = 17;
    cr.expectedSeq = 100;
    cr.state = 1;
    ASSERT_EQ(encode(cr, buf, sizeof(buf)), CtResponse::wireSize);
    auto cr2 = decodeCtResponse(buf, CtResponse::wireSize);
    ASSERT_TRUE(cr2.has_value());
    EXPECT_EQ(cr2->backend, 17u);
    EXPECT_EQ(cr2->expectedSeq, 100u);
    EXPECT_EQ(cr2->state, 1u);

    SpinRequest sq;
    sq.spin = 1;
    ASSERT_EQ(encode(sq, buf, sizeof(buf)), SpinRequest::wireSize);
    auto sq2 = decodeSpinRequest(buf, SpinRequest::wireSize);
    ASSERT_TRUE(sq2.has_value());
    EXPECT_EQ(sq2->spin, 1u);

    SpinResponse sr;
    sr.spin = 1;
    sr.edges = 42;
    sr.lastRttNs = 0xaabbccddULL;
    ASSERT_EQ(encode(sr, buf, sizeof(buf)), SpinResponse::wireSize);
    auto sr2 = decodeSpinResponse(buf, SpinResponse::wireSize);
    ASSERT_TRUE(sr2.has_value());
    EXPECT_EQ(sr2->spin, 1u);
    EXPECT_EQ(sr2->edges, 42u);
    EXPECT_EQ(sr2->lastRttNs, sr.lastRttNs);
}

TEST(AppCodec, DecodersFailClosed)
{
    std::uint8_t buf[64] = {};

    // Length must match exactly — short AND long reject.
    EXPECT_FALSE(decodeHhRequest(buf, HhRequest::wireSize - 1));
    EXPECT_FALSE(decodeHhRequest(buf, HhRequest::wireSize + 1));
    EXPECT_FALSE(decodeCtRequest(buf, CtRequest::wireSize - 1));
    EXPECT_FALSE(decodeCtRequest(buf, CtRequest::wireSize + 1));
    EXPECT_FALSE(decodeSpinRequest(buf, 0));
    EXPECT_FALSE(decodeSpinRequest(buf, SpinRequest::wireSize + 1));
    EXPECT_FALSE(decodeHhResponse(buf, HhResponse::wireSize - 1));
    EXPECT_FALSE(decodeCtResponse(buf, CtResponse::wireSize + 1));
    EXPECT_FALSE(decodeSpinResponse(buf, SpinResponse::wireSize - 1));

    // Out-of-range enum/flag bytes reject.
    CtRequest cq;
    encode(cq, buf, sizeof(buf));
    buf[0] = 3; // verb beyond Close
    EXPECT_FALSE(decodeCtRequest(buf, CtRequest::wireSize));

    SpinRequest sq;
    encode(sq, buf, sizeof(buf));
    buf[0] = 2; // spin beyond one bit
    EXPECT_FALSE(decodeSpinRequest(buf, SpinRequest::wireSize));

    // Encoders refuse too-small buffers.
    HhRequest hq;
    EXPECT_EQ(encode(hq, buf, HhRequest::wireSize - 1), 0u);
    SpinResponse sr;
    EXPECT_EQ(encode(sr, buf, SpinResponse::wireSize - 1), 0u);
}

TEST(AppCodec, FuzzRandomBytesNeverCrash)
{
    Rng rng(0xa99f077);
    std::uint8_t buf[64];
    unsigned accepted = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        const std::size_t len = rng.uniformInt(sizeof(buf) + 1);
        for (std::size_t i = 0; i < len; ++i)
            buf[i] = static_cast<std::uint8_t>(rng.next());
        if (decodeHhRequest(buf, len))
            ++accepted; // any length-8 bytes are a valid HhRequest
        (void)decodeHhResponse(buf, len);
        (void)decodeCtRequest(buf, len);
        (void)decodeCtResponse(buf, len);
        (void)decodeSpinRequest(buf, len);
        (void)decodeSpinResponse(buf, len);
    }
    // Sanity: the fuzzer did exercise the accept path too.
    EXPECT_GT(accepted, 0u);
}

// ---------------------------------------------------------------------
// Synthesis: the shared request generator both environments use
// ---------------------------------------------------------------------

TEST(AppSynthesis, ConntrackLifecycleAndStableTuple)
{
    EXPECT_EQ(ctVerbFor(0), CtVerb::Open);
    EXPECT_EQ(ctVerbFor(1), CtVerb::Data);
    EXPECT_EQ(ctVerbFor(ctConnectionLength - 1), CtVerb::Close);
    EXPECT_EQ(ctVerbFor(ctConnectionLength), CtVerb::Open);

    // The 5-tuple is a function of flowId alone (the seqNo advances):
    // every packet of a connection hashes to the same shard.
    const CtRequest a = ctRequestFor(77, 1);
    const CtRequest b = ctRequestFor(77, 50);
    EXPECT_EQ(a.srcIp, b.srcIp);
    EXPECT_EQ(a.dstIp, b.dstIp);
    EXPECT_EQ(a.srcPort, b.srcPort);
    EXPECT_EQ(a.dstPort, b.dstPort);
    const CtRequest c = ctRequestFor(78, 1);
    EXPECT_TRUE(c.srcIp != a.srcIp || c.srcPort != a.srcPort ||
                c.dstIp != a.dstIp);
}

TEST(AppSynthesis, SynthesizedRequestsDecode)
{
    std::uint8_t buf[64];
    for (unsigned k = 0; k < numAppKinds; ++k) {
        const AppKind kind = static_cast<AppKind>(k);
        for (std::uint64_t seq = 0; seq < 130; ++seq) {
            const std::size_t n = synthesizeRequest(
                kind, 123, seq, static_cast<std::uint8_t>(seq & 1),
                buf, sizeof(buf));
            ASSERT_GT(n, 0u);
            switch (kind) {
              case AppKind::HeavyHitter: {
                const auto m = decodeHhRequest(buf, n);
                ASSERT_TRUE(m.has_value());
                EXPECT_EQ(m->key, 123u);
                break;
              }
              case AppKind::ConntrackLb: {
                const auto m = decodeCtRequest(buf, n);
                ASSERT_TRUE(m.has_value());
                EXPECT_EQ(m->verb, ctVerbFor(seq));
                break;
              }
              case AppKind::SpinRtt: {
                const auto m = decodeSpinRequest(buf, n);
                ASSERT_TRUE(m.has_value());
                EXPECT_EQ(m->spin, seq & 1);
                break;
              }
            }
        }
        // Zero capacity refuses cleanly.
        EXPECT_EQ(synthesizeRequest(kind, 1, 0, 0, buf, 2), 0u);
    }
}

// ---------------------------------------------------------------------
// Simulator wrapper: registration and determinism
// ---------------------------------------------------------------------

TEST(StatefulAppWorkload, RegisteredForAllThreeKinds)
{
    ASSERT_EQ(workloads::appKinds().size(), 3u);
    for (const workloads::Kind k : workloads::appKinds()) {
        const auto wl = workloads::makeWorkload(k, 1, 8);
        ASSERT_NE(wl, nullptr);
        EXPECT_EQ(wl->kind(), k);
        EXPECT_NE(dynamic_cast<workloads::StatefulApp *>(wl.get()),
                  nullptr);
        // The stateless golden contract: app kinds stay OUT of
        // allKinds() (fig10 goldens enumerate it).
        for (const workloads::Kind g : workloads::allKinds())
            EXPECT_NE(g, k);
    }
}

dp::SdpResults
runAppSim(workloads::Kind kind, std::uint64_t *processed,
          std::uint64_t *handledOk)
{
    dp::SdpConfig cfg;
    cfg.plane = dp::PlaneKind::HyperPlane;
    cfg.org = dp::QueueOrg::ScaleOut;
    cfg.numCores = 4;
    cfg.numQueues = 16;
    cfg.offeredRatePerSec = 2e6;
    cfg.warmupUs = 50.0;
    cfg.measureUs = 400.0;
    cfg.seed = 77;
    cfg.workload = kind;
    dp::SdpSystem sys(cfg);
    const dp::SdpResults r = sys.run();
    auto &wl = dynamic_cast<workloads::StatefulApp &>(sys.workload());
    *processed = wl.processed();
    *handledOk = wl.handledOk();
    return r;
}

TEST(StatefulAppWorkload, DeterministicAcrossRuns)
{
    for (const workloads::Kind kind : workloads::appKinds()) {
        std::uint64_t p1 = 0, ok1 = 0;
        const dp::SdpResults r1 = runAppSim(kind, &p1, &ok1);
        ASSERT_GT(r1.completions, 0u);
        ASSERT_GT(p1, 0u);
        // Every synthesized request must decode.
        EXPECT_EQ(ok1, p1);

        std::uint64_t p2 = 0, ok2 = 0;
        const dp::SdpResults r2 = runAppSim(kind, &p2, &ok2);
        EXPECT_EQ(r2.completions, r1.completions)
            << workloads::toString(kind);
        EXPECT_EQ(r2.p99LatencyUs, r1.p99LatencyUs)
            << workloads::toString(kind);
        EXPECT_EQ(p2, p1);
        EXPECT_EQ(ok2, ok1);
    }
}

} // namespace
} // namespace app
} // namespace hyperplane
