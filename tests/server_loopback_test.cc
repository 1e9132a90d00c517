/**
 * @file
 * End-to-end loopback tests: the real UDP server + load generator over
 * 127.0.0.1.  Each test skips (with an annotation) when the sandbox
 * forbids sockets, so restricted CI environments stay green without
 * silently losing coverage elsewhere.
 */

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include "json_check.hh"
#include "server/loadgen.hh"
#include "server/server.hh"
#include "trace/chrome_trace.hh"
#include "trace/trace.hh"

namespace hyperplane {
namespace server {
namespace {

using namespace std::chrono_literals;

/** Start a server or skip the test when sockets are unavailable. */
#define START_OR_SKIP(srv)                                             \
    do {                                                               \
        if (!(srv).start())                                            \
            GTEST_SKIP()                                               \
                << "UDP loopback sockets unavailable in this sandbox"; \
    } while (0)

LoadGenConfig
loadgenFor(const UdpServer &srv, double rate, double seconds)
{
    LoadGenConfig lg;
    lg.serverPort = srv.port();
    lg.ratePerSec = rate;
    lg.durationSec = seconds;
    lg.numFlows = 64;
    lg.seed = 7;
    return lg;
}

TEST(ServerLoopback, EchoAnswersNearlyEverything)
{
    ServerConfig cfg;
    cfg.rxThreads = 2;
    cfg.workers = 2;
    cfg.numQueues = 16;
    UdpServer srv(cfg);
    START_OR_SKIP(srv);

    LoadGenConfig lg = loadgenFor(srv, 20000.0, 0.5);
    auto report = UdpLoadGen(lg).run();
    ASSERT_TRUE(report.has_value());
    EXPECT_TRUE(srv.stop());

    ASSERT_GT(report->sent, 0u);
    // The acceptance bar: >= 99.9% of requests answered.
    EXPECT_GE(report->completionRatio, 0.999);
    EXPECT_GT(report->latencySamples, 0u);
    EXPECT_GT(report->p99Us, 0.0);
    EXPECT_EQ(report->parseErrors, 0u);
    EXPECT_EQ(report->badStatus, 0u);
    EXPECT_EQ(srv.counterSnapshot().parseErrors, 0u);
    EXPECT_GE(srv.counterSnapshot().served, report->received);
}

TEST(ServerLoopback, AllOpcodesServeAndSteerSpreadsQueues)
{
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.numQueues = 8;
    UdpServer srv(cfg);
    START_OR_SKIP(srv);

    LoadGenConfig lg = loadgenFor(srv, 10000.0, 0.4);
    lg.opcodeWeights = {0.4, 0.3, 0.3}; // echo / encap / steer mix
    lg.payloadBytes = 128;
    auto report = UdpLoadGen(lg).run();
    ASSERT_TRUE(report.has_value());
    EXPECT_TRUE(srv.stop());

    EXPECT_GE(report->completionRatio, 0.999);
    // Encap requests carry a valid IPv4 payload, so no bad statuses.
    EXPECT_EQ(report->badStatus, 0u);
    EXPECT_EQ(report->parseErrors, 0u);
}

TEST(ServerLoopback, ClosedLoopAlsoCompletes)
{
    ServerConfig cfg;
    UdpServer srv(cfg);
    START_OR_SKIP(srv);

    LoadGenConfig lg = loadgenFor(srv, 5000.0, 0.3);
    lg.openLoop = false;
    lg.window = 32;
    auto report = UdpLoadGen(lg).run();
    ASSERT_TRUE(report.has_value());
    EXPECT_TRUE(srv.stop());

    ASSERT_GT(report->sent, 0u);
    EXPECT_GE(report->completionRatio, 0.999);
}

TEST(ServerLoopback, StopDrainsAndNoHandlerRunsAfter)
{
    ServerConfig cfg;
    cfg.workers = 2;
    UdpServer srv(cfg);
    START_OR_SKIP(srv);

    LoadGenConfig lg = loadgenFor(srv, 15000.0, 0.3);
    auto report = UdpLoadGen(lg).run();
    ASSERT_TRUE(report.has_value());

    EXPECT_TRUE(srv.stop(2s));
    const std::uint64_t served = srv.counterSnapshot().served;
    EXPECT_EQ(srv.backlog(), 0u);
    // Idempotent, and nothing is served after stop() returned.
    EXPECT_TRUE(srv.stop());
    std::this_thread::sleep_for(50ms);
    EXPECT_EQ(srv.counterSnapshot().served, served);
}

TEST(ServerLoopback, IdleServerMakesNoTimerWakeups)
{
    // RX blocks in epoll_wait, the workers park in QWAIT and the
    // metrics thread blocks in accept(), none with a timeout: an idle
    // server's threads never wake, so no qwait times out and the
    // process makes no voluntary context switch beyond the test's own
    // sleep.
    ServerConfig cfg;
    cfg.telemetry.metricsPort = 0;
    UdpServer srv(cfg);
    START_OR_SKIP(srv);
    std::this_thread::sleep_for(50ms); // let every thread park
    rusage before{}, after{};
    ::getrusage(RUSAGE_SELF, &before);
    std::this_thread::sleep_for(500ms);
    ::getrusage(RUSAGE_SELF, &after);
    if (srv.metricsPort() >= 0) {
        EXPECT_LE(after.ru_nvcsw - before.ru_nvcsw, 2);
    }
    EXPECT_EQ(srv.device().qwaitTimeouts(), 0u);
    EXPECT_TRUE(srv.stop());
    EXPECT_EQ(srv.device().qwaitTimeouts(), 0u);
}

TEST(ServerLoopback, TraceStampsExportToChromeJson)
{
    // Tracing every request is the flight recorder at
    // stageSampleEvery = 1, with rings big enough to keep the whole run.
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.telemetry.stageSampleEvery = 1;
    cfg.telemetry.recorderCapacity = 1 << 14;
    UdpServer srv(cfg);
    START_OR_SKIP(srv);

    LoadGenConfig lg = loadgenFor(srv, 2000.0, 0.2);
    auto report = UdpLoadGen(lg).run();
    ASSERT_TRUE(report.has_value());
    EXPECT_TRUE(srv.stop());

    const trace::FlightRecorder &flight = *srv.flightRecorder();
    const auto events = flight.snapshot();
    ASSERT_FALSE(events.empty());

    // Every pipeline stage must have stamped something.
    bool sawDoorbell = false, sawGrant = false, sawService = false,
         sawCompletion = false;
    for (const auto &e : events) {
        sawDoorbell |= e.stage == trace::Stage::DoorbellWrite;
        sawGrant |= e.stage == trace::Stage::QwaitReturn;
        sawService |= e.stage == trace::Stage::Service;
        sawCompletion |= e.stage == trace::Stage::Completion;
    }
    EXPECT_TRUE(sawDoorbell);
    EXPECT_TRUE(sawGrant);
    EXPECT_TRUE(sawService);
    EXPECT_TRUE(sawCompletion);

    // Service begin/end spans must pair per serving thread's track, as
    // long as no ring wrapped.
    if (flight.dropped() == 0) {
        const auto check = trace::checkSpanPairing(events);
        EXPECT_TRUE(check.ok) << check.error;
    }

    // And the server's export renders them for Perfetto.
    const std::string json = srv.flightTraceJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("doorbell_write"), std::string::npos);
    EXPECT_NE(json.find("completion"), std::string::npos);

    // A dump file holds the same well-formed document.
    const std::string dumpPath =
        ::testing::TempDir() + "hp_loopback_flight.json";
    ASSERT_TRUE(srv.dumpFlightTrace(dumpPath));
    std::string dump;
    {
        std::ifstream in(dumpPath);
        dump.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    std::remove(dumpPath.c_str());
    EXPECT_TRUE(hyperplane::testing::jsonWellFormed(dump));
    EXPECT_NE(dump.find("\"qwait_return\""), std::string::npos);
}

TEST(ServerLoopback, SampledStagesCoverEveryRequestOnce)
{
    // At stageSampleEvery = 1 every request is sampled, so each stage
    // stamps or records exactly once for every request that reaches
    // it.  A rate limit below the offered load makes typed rejects, so
    // the reject path's stamps are counted too.
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.telemetry.stageSampleEvery = 1;
    cfg.telemetry.recorderCapacity = 1 << 14;
    dp::TenantSpec limited;
    limited.rateLimitPerSec = 1000.0;
    limited.queueCount = cfg.numQueues;
    cfg.tenants = {limited};
    UdpServer srv(cfg);
    START_OR_SKIP(srv);

    auto report = UdpLoadGen(loadgenFor(srv, 2000.0, 0.3)).run();
    ASSERT_TRUE(report.has_value());
    EXPECT_TRUE(srv.stop());

    const trace::FlightRecorder &flight = *srv.flightRecorder();
    ASSERT_EQ(flight.dropped(), 0u);
    std::uint64_t doorbells = 0, sheds = 0, begins = 0, ends = 0,
                  completions = 0;
    for (const auto &e : flight.snapshot()) {
        doorbells += e.stage == trace::Stage::DoorbellWrite;
        sheds += e.stage == trace::Stage::AdmissionShed;
        completions += e.stage == trace::Stage::Completion;
        if (e.stage == trace::Stage::Service) {
            begins += e.phase == trace::Phase::Begin;
            ends += e.phase == trace::Phase::End;
        }
    }
    const ServerCounterSnapshot s = srv.counterSnapshot();
    ASSERT_GT(s.served, 0u);
    ASSERT_GT(s.shedRateLimited, 0u);
    EXPECT_EQ(doorbells, s.admitted);
    EXPECT_EQ(sheds, s.shedTotal());
    EXPECT_EQ(begins, s.served);
    EXPECT_EQ(ends, s.served);
    EXPECT_EQ(completions, s.txPackets);

    stats::Registry reg;
    srv.registerStats(reg);
    for (const char *stage : {"qwait_service", "service_tx", "e2e"}) {
        EXPECT_EQ(reg.value(std::string("server.stage.") + stage + ".count"),
                  static_cast<double>(s.served))
            << stage;
    }
}

TEST(ServerLoopback, RegistryExposesServerAndDeviceCounters)
{
    ServerConfig cfg;
    UdpServer srv(cfg);
    START_OR_SKIP(srv);

    LoadGenConfig lg = loadgenFor(srv, 2000.0, 0.2);
    auto report = UdpLoadGen(lg).run();
    ASSERT_TRUE(report.has_value());
    EXPECT_TRUE(srv.stop());

    stats::Registry reg;
    srv.registerStats(reg);
    EXPECT_TRUE(reg.has("server.rx_packets"));
    EXPECT_TRUE(reg.has("server.requests_served"));
    EXPECT_TRUE(reg.has("server.tx_packets"));
    EXPECT_TRUE(reg.has("server.requests_served_inline"));
    // No TX queue exists, so no TX-queue drop row may be exported.
    EXPECT_FALSE(reg.has("server.tx_queue_drops"));
    std::string contentType;
    for (const char *path : {"/metrics", "/stats.json"}) {
        const std::string page = srv.metricsPage(path, contentType);
        EXPECT_NE(page.find("rx_queue_drops"), std::string::npos) << path;
        EXPECT_EQ(page.find("tx_queue_drops"), std::string::npos) << path;
    }
    EXPECT_TRUE(reg.has("server.dev.grants"));
    EXPECT_TRUE(reg.has("server.dev.wakeups"));
    EXPECT_GT(reg.value("server.rx_packets"), 0.0);
    EXPECT_GT(reg.value("server.dev.grants"), 0.0);
}

TEST(ServerLoopback, BurstWiderThanOneGrantSpreadsToWorkers)
{
    // Each burst is one sendmmsg of requests on many flows, so one RX
    // batch rings many queues.  The RX thread serves one grant inline;
    // the rest must reach the pool workers through the deferred wake,
    // and every request must be answered exactly once.
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.numQueues = 16;
    UdpServer srv(cfg);
    START_OR_SKIP(srv);

    auto sockOpt = UdpSocket::open();
    ASSERT_TRUE(sockOpt.has_value());
    UdpSocket &sock = *sockOpt;
    sockaddr_in peer{};
    peer.sin_family = AF_INET;
    peer.sin_addr.s_addr = htonl(0x7f000001);
    peer.sin_port = htons(srv.port());

    constexpr unsigned burst = 32;
    constexpr unsigned bursts = 10;
    std::vector<std::uint8_t> answered(burst * bursts, 0);
    std::uint64_t received = 0, duplicates = 0, badStatus = 0;
    std::vector<Datagram> in;
    const auto drain = [&](std::chrono::steady_clock::time_point until,
                           std::uint64_t want) {
        while (received < want && std::chrono::steady_clock::now() < until) {
            in.clear();
            if (sock.recvBatch(in, 64) == 0) {
                std::this_thread::sleep_for(200us);
                continue;
            }
            for (const Datagram &d : in) {
                const auto rh =
                    wire::parseResponse(d.bytes.data(), d.bytes.size());
                ASSERT_TRUE(rh.has_value());
                ASSERT_LT(rh->seq, answered.size());
                badStatus += rh->status != wire::statusOk;
                duplicates += answered[rh->seq]++ > 0;
                ++received;
            }
        }
    };

    std::vector<Datagram> out(burst);
    for (unsigned b = 0; b < bursts; ++b) {
        for (unsigned i = 0; i < burst; ++i) {
            wire::RequestHeader hdr;
            hdr.seq = b * burst + i;
            hdr.flowId = i; // 32 flows spread over the 16 queues
            out[i].peer = peer;
            out[i].bytes.resize(wire::RequestHeader::wireSize);
            ASSERT_NE(wire::buildRequest(out[i].bytes.data(),
                                         out[i].bytes.size(), hdr, nullptr),
                      0u);
        }
        ASSERT_EQ(sock.sendBatch(out.data(), out.size()), out.size());
        drain(std::chrono::steady_clock::now() + 2s, (b + 1) * burst);
    }
    EXPECT_TRUE(srv.stop());

    EXPECT_EQ(received, std::uint64_t{burst} * bursts);
    EXPECT_EQ(duplicates, 0u);
    EXPECT_EQ(badStatus, 0u);
    const ServerCounterSnapshot s = srv.counterSnapshot();
    EXPECT_EQ(s.served, std::uint64_t{burst} * bursts);
    EXPECT_GT(s.servedInline, 0u) << "RX must serve its own grant";
    EXPECT_GT(s.served - s.servedInline, 0u)
        << "work past one grant must reach the pool workers";
}

TEST(ServerLoopback, FlowRepliesStayInOrder)
{
    // One thread serves a queue at a time, from pop to send, so every
    // flow's replies leave in arrival order.  Tiny grants and three
    // workers make the device hand one queue to several threads at
    // once; bursts over one flow and over four flows must still come
    // back with each flow's sequence numbers rising.
    ServerConfig cfg;
    cfg.workers = 3;
    cfg.maxBatch = 2;
    UdpServer srv(cfg);
    START_OR_SKIP(srv);

    auto sockOpt = UdpSocket::open();
    ASSERT_TRUE(sockOpt.has_value());
    UdpSocket &sock = *sockOpt;
    sockaddr_in peer{};
    peer.sin_family = AF_INET;
    peer.sin_addr.s_addr = htonl(0x7f000001);
    peer.sin_port = htons(srv.port());

    constexpr unsigned burst = 64;
    constexpr unsigned bursts = 100;
    std::uint64_t nextSeq = 0;
    for (const unsigned flows : {1u, 4u}) {
        std::vector<std::uint64_t> lastSeq(flows, 0);
        std::vector<std::uint8_t> seen(flows, 0);
        std::uint64_t received = 0, reorders = 0;
        std::vector<Datagram> out(burst), in;
        for (unsigned b = 0; b < bursts; ++b) {
            for (unsigned i = 0; i < burst; ++i) {
                wire::RequestHeader hdr;
                hdr.seq = nextSeq++;
                hdr.flowId = static_cast<std::uint32_t>(hdr.seq % flows);
                out[i].peer = peer;
                out[i].bytes.resize(wire::RequestHeader::wireSize);
                ASSERT_NE(wire::buildRequest(out[i].bytes.data(),
                                             out[i].bytes.size(), hdr,
                                             nullptr),
                          0u);
            }
            ASSERT_EQ(sock.sendBatch(out.data(), out.size()), out.size());
            const std::uint64_t want = std::uint64_t{b + 1} * burst;
            const auto until = std::chrono::steady_clock::now() + 2s;
            while (received < want &&
                   std::chrono::steady_clock::now() < until) {
                in.clear();
                if (sock.recvBatch(in, 64) == 0) {
                    std::this_thread::sleep_for(50us);
                    continue;
                }
                for (const Datagram &d : in) {
                    const auto rh = wire::parseResponse(d.bytes.data(),
                                                        d.bytes.size());
                    ASSERT_TRUE(rh.has_value());
                    ASSERT_LT(rh->flowId, flows);
                    const unsigned f = rh->flowId;
                    reorders += seen[f] && rh->seq < lastSeq[f];
                    lastSeq[f] = std::max(lastSeq[f], rh->seq);
                    seen[f] = 1;
                    ++received;
                }
            }
            ASSERT_EQ(received, want)
                << flows << " flow(s): burst " << b << " went unanswered";
        }
        EXPECT_EQ(reorders, 0u)
            << flows << " flow(s): replies overtook earlier replies";
    }
    EXPECT_TRUE(srv.stop());
}

TEST(ServerLoopback, EchoPathIsZeroCopy)
{
    // The zero-copy acceptance gate: an echo-only run must perform
    // exactly zero payload copies between RX and TX — the response is
    // built in the request's own frame.
    ServerConfig cfg;
    cfg.rxThreads = 2;
    cfg.workers = 2;
    UdpServer srv(cfg);
    START_OR_SKIP(srv);

    LoadGenConfig lg = loadgenFor(srv, 8000.0, 0.4);
    lg.payloadBytes = 256; // real payload bytes that must not move
    auto report = UdpLoadGen(lg).run();
    ASSERT_TRUE(report.has_value());
    EXPECT_TRUE(srv.stop());

    const ServerCounterSnapshot s = srv.counterSnapshot();
    ASSERT_GT(s.served, 0u);
    EXPECT_EQ(s.payloadCopies, 0u)
        << "echo responses must reuse the RX frame";
    EXPECT_EQ(s.poolDrops, 0u);
    EXPECT_GE(report->completionRatio, 0.999);
}

TEST(ServerLoopback, EncapCountsItsOneTransformCopy)
{
    // GRE encap legitimately rewrites the payload: the tripwire must
    // count those (and only those) copies, proving it is live.
    ServerConfig cfg;
    UdpServer srv(cfg);
    START_OR_SKIP(srv);

    LoadGenConfig lg = loadgenFor(srv, 5000.0, 0.3);
    lg.opcodeWeights = {0.0, 1.0, 0.0}; // encap only
    lg.payloadBytes = 128;
    auto report = UdpLoadGen(lg).run();
    ASSERT_TRUE(report.has_value());
    EXPECT_TRUE(srv.stop());

    const ServerCounterSnapshot s = srv.counterSnapshot();
    ASSERT_GT(s.served, 0u);
    EXPECT_EQ(report->badStatus, 0u);
    EXPECT_EQ(s.payloadCopies, s.served)
        << "exactly one counted copy per encap response";
}

TEST(ServerLoopback, TinyFramePoolStaysGracefulUnderLoad)
{
    // Starve the RX pools (the floor is one rxBatch per shard) and
    // push hard: every arrival must still be answered or shed typed —
    // never crashed, never silently dropped past the reserve.
    ServerConfig cfg;
    cfg.rxThreads = 1;
    cfg.workers = 1;
    cfg.rxBatch = 8;
    cfg.framesPerRxShard = 8;
    UdpServer srv(cfg);
    START_OR_SKIP(srv);

    LoadGenConfig lg = loadgenFor(srv, 30000.0, 0.4);
    auto report = UdpLoadGen(lg).run();
    ASSERT_TRUE(report.has_value());
    EXPECT_TRUE(srv.stop());

    ASSERT_GT(report->sent, 0u);
    const ServerCounterSnapshot s = srv.counterSnapshot();
    // Conservation: everything received parsed into an answer path.
    EXPECT_GT(s.served + s.shedQueueFull + s.shedRateLimited +
                  s.shedWatermark,
              0u);
    // Eight frames cannot cover this load: the pool ran dry.
    EXPECT_GT(s.poolExhausted, 0u);
    // The registry exposes the pool health counters.
    stats::Registry reg;
    srv.registerStats(reg);
    EXPECT_TRUE(reg.has("server.pool.frames_total"));
    EXPECT_TRUE(reg.has("server.pool.frames_free"));
    EXPECT_TRUE(reg.has("server.pool.exhausted"));
    EXPECT_TRUE(reg.has("server.pool.reject_reserve_free"));
    EXPECT_TRUE(reg.has("server.payload_copies"));
    EXPECT_TRUE(reg.has("server.simd.checksum_level"));
    EXPECT_TRUE(reg.has("server.simd.force_scalar"));
    EXPECT_EQ(reg.value("server.pool.frames_total"), 8.0);
}

TEST(ServerLoopback, StatefulAppsServeFlowCoherentTraffic)
{
    // The three stateful apps behind real wire opcodes 3..5, driven by
    // the flow-coherent generator: every flow sticks to one app, so
    // conntrack sees whole open->data->close cycles and spin-rtt sees
    // a coherent spin signal the client flips on each reflection.
    ServerConfig cfg;
    cfg.rxThreads = 2;
    cfg.workers = 2;
    cfg.numQueues = 8;
    UdpServer srv(cfg);
    START_OR_SKIP(srv);

    LoadGenConfig lg = loadgenFor(srv, 12000.0, 0.5);
    lg.opcodeWeights = {0.0, 0.0, 0.0, 0.34, 0.33, 0.33};
    auto report = UdpLoadGen(lg).run();
    ASSERT_TRUE(report.has_value());
    EXPECT_TRUE(srv.stop());

    ASSERT_GT(report->sent, 0u);
    EXPECT_GE(report->completionRatio, 0.999);
    // Synthesized payloads always decode: no bad statuses, and the
    // handlers' own parsers never fired their fail-closed path.
    EXPECT_EQ(report->badStatus, 0u);
    EXPECT_EQ(report->parseErrors, 0u);

    const ServerCounterSnapshot s = srv.counterSnapshot();
    ASSERT_GT(s.served, 0u);
    // App responses are built over the request frame in place.
    EXPECT_EQ(s.payloadCopies, 0u);

    stats::Registry reg;
    srv.registerStats(reg);
    EXPECT_GT(reg.value("server.app.heavy_hitter.updates"), 0.0);
    EXPECT_GT(reg.value("server.app.conntrack.opens"), 0.0);
    // ~60 packets per flow: the spin flows observed many reflected
    // flips, so edges and at least one RTT sample must exist.
    EXPECT_GT(reg.value("server.app.spin_rtt.edges"), 0.0);
    EXPECT_GT(reg.value("server.app.spin_rtt.samples"), 0.0);
    EXPECT_EQ(reg.value("server.app.heavy_hitter.decode_errors"), 0.0);
    EXPECT_EQ(reg.value("server.app.conntrack.decode_errors"), 0.0);
    EXPECT_EQ(reg.value("server.app.spin_rtt.decode_errors"), 0.0);
}

TEST(ServerLoopback, MalformedDatagramsAreCountedNotServed)
{
    ServerConfig cfg;
    UdpServer srv(cfg);
    START_OR_SKIP(srv);

    auto sockOpt = UdpSocket::open();
    ASSERT_TRUE(sockOpt.has_value());
    sockaddr_in peer{};
    peer.sin_family = AF_INET;
    peer.sin_addr.s_addr = htonl(0x7f000001);
    peer.sin_port = htons(srv.port());

    const std::uint8_t junk[64] = {0x42};
    for (int i = 0; i < 32; ++i)
        ASSERT_TRUE(sockOpt->sendTo(peer, junk, sizeof(junk)));

    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (srv.counterSnapshot().parseErrors < 32 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(1ms);
    }
    EXPECT_TRUE(srv.stop());
    EXPECT_EQ(srv.counterSnapshot().parseErrors, 32u);
    EXPECT_EQ(srv.counterSnapshot().served, 0u);
}

} // namespace
} // namespace server
} // namespace hyperplane
