/**
 * @file
 * Multi-tenant overload control: tenant spec validation, token-bucket
 * admission, the TenantTable, doorbell-storm muting on the emulated
 * device, watchdog demotion/promotion under concurrent per-tenant
 * demand (the TSan target), and end-to-end loopback isolation.  The
 * loopback tests skip with an annotation when the sandbox forbids
 * sockets.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dp/sdp_system.hh"
#include "dp/tenant_spec.hh"
#include "emu/data_plane_pool.hh"
#include "emu/emu_hyperplane.hh"
#include "server/loadgen.hh"
#include "server/server.hh"
#include "server/tenant.hh"
#include "stats/registry.hh"

namespace hyperplane {
namespace {

using namespace std::chrono_literals;

dp::TenantSpec
spec(const char *name, std::uint32_t weight, std::uint32_t priority,
     double rate, unsigned first, unsigned count)
{
    dp::TenantSpec s;
    s.name = name;
    s.weight = weight;
    s.priority = priority;
    s.rateLimitPerSec = rate;
    s.queueFirst = first;
    s.queueCount = count;
    return s;
}

// --- Spec validation (shared by SdpConfig::validate and the server) ---

TEST(TenantSpecValidate, AcceptsDisjointOrderedGroups)
{
    const std::vector<dp::TenantSpec> tenants{
        spec("gold", 8, 2, 1e4, 0, 4),
        spec("silver", 2, 1, 5e3, 4, 8),
        spec("bronze", 1, 0, 0.0, 12, 4),
    };
    EXPECT_EQ(dp::validateTenantSpecs(tenants, 16), "");
    EXPECT_EQ(dp::validateTenantSpecs({}, 16), "");
}

TEST(TenantSpecValidate, RejectsZeroWeightWithMessage)
{
    const auto err = dp::validateTenantSpecs(
        {spec("t", 0, 0, 0.0, 0, 4)}, 16);
    EXPECT_NE(err.find("weight must be >= 1"), std::string::npos)
        << err;
}

TEST(TenantSpecValidate, RejectsOverlappingGroupsWithMessage)
{
    const auto err = dp::validateTenantSpecs(
        {spec("a", 1, 0, 0.0, 0, 8), spec("b", 1, 0, 0.0, 4, 8)}, 16);
    EXPECT_NE(err.find("overlaps tenant a"), std::string::npos) << err;
}

TEST(TenantSpecValidate, RejectsUnlimitedHighPriorityWithMessage)
{
    const auto err = dp::validateTenantSpecs(
        {spec("t", 1, 1, 0.0, 0, 4)}, 16);
    EXPECT_NE(err.find("priority > 0 requires a rate limit"),
              std::string::npos)
        << err;
}

TEST(TenantSpecValidate, RejectsGroupBeyondQueueCount)
{
    const auto err = dp::validateTenantSpecs(
        {spec("t", 1, 0, 0.0, 12, 8)}, 16);
    EXPECT_NE(err.find("exceeds numQueues=16"), std::string::npos)
        << err;
}

TEST(TenantSpecValidate, RejectsPriorityContradictingQueueOrder)
{
    // Higher priority on *higher* queue ids: the strict-priority
    // arbiter grants the lowest QID, so this spec would invert QoS.
    const auto err = dp::validateTenantSpecs(
        {spec("low", 1, 0, 0.0, 0, 4), spec("high", 1, 1, 1e3, 4, 4)},
        8);
    EXPECT_NE(err.find("priority order contradicts queue-group order"),
              std::string::npos)
        << err;
}

TEST(TenantSpecValidate, SdpConfigValidateRejectsMalformedTenants)
{
    const auto expectRejected = [](std::vector<dp::TenantSpec> tenants) {
        dp::SdpConfig cfg;
        cfg.tenants = std::move(tenants);
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
    };
    expectRejected({spec("t", 0, 0, 0.0, 0, 4)});
    expectRejected({spec("t", 1, 0, 0.0, 0, 0)});
    expectRejected({spec("t", 1, 1, 0.0, 0, 4)});
    expectRejected({spec("t", 1, 0, -1.0, 0, 4)});
    expectRejected(
        {spec("a", 1, 0, 0.0, 0, 8), spec("b", 1, 0, 0.0, 4, 8)});

    dp::SdpConfig ok;
    ok.tenants = {spec("a", 4, 1, 1e4, 0, 8),
                  spec("b", 1, 0, 0.0, 8, 8)};
    EXPECT_NO_THROW(ok.validate());
}

// --- Token bucket (external clock, deterministic) ---

TEST(TokenBucket, UnlimitedAlwaysAdmits)
{
    server::TokenBucket tb(0.0, 0.0);
    EXPECT_TRUE(tb.unlimited());
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(tb.tryTake(0));
}

TEST(TokenBucket, BurstThenRefillExactly)
{
    server::TokenBucket tb(1000.0, 10.0); // 1 token/ms, depth 10
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(tb.tryTake(0)) << i;
    EXPECT_FALSE(tb.tryTake(0));
    // 5 ms later: exactly 5 tokens accrued.
    const std::uint64_t t1 = 5'000'000;
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(tb.tryTake(t1)) << i;
    EXPECT_FALSE(tb.tryTake(t1));
}

TEST(TokenBucket, RefillCapsAtBurst)
{
    server::TokenBucket tb(1000.0, 4.0);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(tb.tryTake(0));
    // An hour idle refills to the 4-token cap, not 3.6 M tokens.
    const std::uint64_t later = 3'600ULL * 1'000'000'000ULL;
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(tb.tryTake(later)) << i;
    EXPECT_FALSE(tb.tryTake(later));
}

TEST(TokenBucket, PacesToTheConfiguredRate)
{
    server::TokenBucket tb(10000.0, 1.0); // 1 token / 100 us
    EXPECT_TRUE(tb.tryTake(0));
    EXPECT_FALSE(tb.tryTake(50'000)); // 0.5 tokens accrued
    EXPECT_TRUE(tb.tryTake(100'000));
    EXPECT_FALSE(tb.tryTake(150'000));
}

// --- TenantTable ---

TEST(TenantTable, EmptySpecsBuildOneUnlimitedTenant)
{
    server::TenantTable tt({}, 8, 0, 0);
    EXPECT_EQ(tt.numTenants(), 1u);
    EXPECT_EQ(tt.name(0), "default");
    for (QueueId q = 0; q < 8; ++q)
        EXPECT_EQ(tt.tenantOfQueue(q), 0u);
    for (std::uint32_t f = 0; f < 64; ++f)
        EXPECT_EQ(tt.tenantOf(f), 0u);
    EXPECT_TRUE(tt.admit(0, 0));
    EXPECT_FALSE(tt.shouldShed(0, 1u << 20));
}

TEST(TenantTable, ClassifiesAndSteersIntoOwnGroup)
{
    server::TenantTable tt(
        {spec("v", 4, 1, 1e5, 0, 4), spec("a", 1, 0, 1e3, 4, 4)}, 8, 0,
        0);
    ASSERT_EQ(tt.numTenants(), 2u);
    for (std::uint32_t f = 0; f < 32; ++f)
        EXPECT_EQ(tt.tenantOf(f), f % 2);
    for (std::uint32_t i = 0; i < 200; ++i) {
        server::FlowKey key;
        key.srcPort = static_cast<std::uint16_t>(i);
        key.innerFlow = i;
        const QueueId q0 = tt.steer(key, 0);
        const QueueId q1 = tt.steer(key, 1);
        EXPECT_LT(q0, 4u);
        EXPECT_GE(q1, 4u);
        EXPECT_LT(q1, 8u);
    }
    EXPECT_EQ(tt.tenantOfQueue(0), 0u);
    EXPECT_EQ(tt.tenantOfQueue(7), 1u);
}

TEST(TenantTable, ShedThresholdsRankByPriority)
{
    server::TenantTable tt(
        {spec("gold", 1, 2, 1e4, 0, 2), spec("silver", 1, 1, 1e4, 2, 2),
         spec("bronze", 1, 0, 0.0, 4, 2)},
        6, 100, 300);
    // Lowest priority sheds first (threshold = low watermark), highest
    // last (threshold = high watermark).
    EXPECT_EQ(tt.shedThreshold(0), 300u);
    EXPECT_EQ(tt.shedThreshold(1), 200u);
    EXPECT_EQ(tt.shedThreshold(2), 100u);
    EXPECT_FALSE(tt.shouldShed(2, 99));
    EXPECT_TRUE(tt.shouldShed(2, 100));
    EXPECT_FALSE(tt.shouldShed(0, 299));
    EXPECT_TRUE(tt.shouldShed(0, 300));
}

TEST(TenantTable, WatermarkDisabledMeansNoShedding)
{
    server::TenantTable tt({spec("t", 1, 0, 0.0, 0, 4)}, 4, 0, 0);
    EXPECT_EQ(tt.shedThreshold(0), 0u);
    EXPECT_FALSE(tt.shouldShed(0, 1u << 30));
}

TEST(TenantTable, ThrowsOnMalformedSpecsAndWatermarks)
{
    EXPECT_THROW(server::TenantTable({spec("t", 0, 0, 0.0, 0, 4)}, 8, 0,
                                     0),
                 std::invalid_argument);
    EXPECT_THROW(server::TenantTable({spec("a", 1, 0, 0.0, 0, 8),
                                      spec("b", 1, 0, 0.0, 4, 4)},
                                     8, 0, 0),
                 std::invalid_argument);
    EXPECT_THROW(server::TenantTable({spec("t", 1, 1, 0.0, 0, 4)}, 8, 0,
                                     0),
                 std::invalid_argument);
    // Watermark shedding enabled but low watermark unset / inverted.
    EXPECT_THROW(server::TenantTable({}, 8, 0, 100),
                 std::invalid_argument);
    EXPECT_THROW(server::TenantTable({}, 8, 200, 100),
                 std::invalid_argument);
}

// --- Device-side storm muting ---

TEST(EmuMute, MutedRingKeepsAccountingButWakesNobody)
{
    emu::EmuHyperPlane hp(4);
    const auto qid = hp.addQueue();
    ASSERT_TRUE(qid.has_value());

    hp.setMuted(*qid, true);
    EXPECT_TRUE(hp.isMuted(*qid));
    hp.ring(*qid, 3);
    EXPECT_EQ(hp.pendingItems(*qid), 3u);
    EXPECT_EQ(hp.ringCalls(*qid), 1u);
    EXPECT_EQ(hp.mutedRings(), 1u);
    // The doorbell advertises work, but the ready set never armed.
    EXPECT_FALSE(hp.qwaitNonBlocking().has_value());
}

TEST(EmuMute, PollActivateServesAMutedQueue)
{
    emu::EmuHyperPlane hp(4);
    const auto qid = hp.addQueue();
    ASSERT_TRUE(qid.has_value());
    hp.setMuted(*qid, true);
    hp.ring(*qid, 2);

    EXPECT_TRUE(hp.pollActivate(*qid));
    const auto granted = hp.qwaitNonBlocking();
    ASSERT_TRUE(granted.has_value());
    EXPECT_EQ(*granted, *qid);
    EXPECT_EQ(hp.take(*qid, 16), 2u);
    // Nothing left: pollActivate refuses to arm an empty queue.
    EXPECT_FALSE(hp.pollActivate(*qid));
}

TEST(EmuMute, UnmuteReactivatesPendingWork)
{
    emu::EmuHyperPlane hp(4);
    const auto qid = hp.addQueue();
    ASSERT_TRUE(qid.has_value());
    hp.setMuted(*qid, true);
    hp.ring(*qid, 1);
    EXPECT_FALSE(hp.qwaitNonBlocking().has_value());

    hp.setMuted(*qid, false);
    const auto granted = hp.qwaitNonBlocking();
    ASSERT_TRUE(granted.has_value());
    EXPECT_EQ(*granted, *qid);
}

/**
 * The TSan target: concurrent per-tenant demand while a watchdog-style
 * sweeper demotes (mutes) a storming queue and promotes it back after
 * the storm ends.  Healthy traffic must be fully served throughout,
 * and every mute/poll/unmute crosses threads with the producers.
 */
TEST(StormContainment, WatchdogMutesAndPromotesUnderConcurrency)
{
    constexpr unsigned numQueues = 4;
    constexpr QueueId stormQ = 3;
    constexpr std::uint64_t healthyItems = 2000;
    constexpr std::uint64_t ringCap = 200; // rings per sweep

    emu::EmuHyperPlane hp(numQueues);
    for (unsigned q = 0; q < numQueues; ++q)
        ASSERT_TRUE(hp.addQueue().has_value());

    std::atomic<std::uint64_t> served[numQueues] = {};
    emu::DataPlanePool pool(
        hp, 2,
        [&](QueueId qid, std::uint64_t n) {
            served[qid].fetch_add(n, std::memory_order_relaxed);
        },
        16);
    pool.start();

    std::atomic<bool> storming{true};
    std::thread storm([&] {
        while (storming.load(std::memory_order_relaxed)) {
            hp.ring(stormQ, 0); // zero-item doorbell: pure wakeup
            std::this_thread::sleep_for(10us);
        }
    });

    std::vector<std::thread> producers;
    for (QueueId q = 0; q < numQueues - 1; ++q) {
        producers.emplace_back([&hp, q] {
            for (std::uint64_t i = 0; i < healthyItems; ++i) {
                hp.ring(q, 1);
                if (i % 64 == 0)
                    std::this_thread::sleep_for(100us);
            }
        });
    }

    std::atomic<bool> sweeping{true};
    std::atomic<unsigned> demotions{0};
    std::atomic<unsigned> promotions{0};
    std::thread sweeper([&] {
        std::uint64_t prev[numQueues] = {};
        unsigned clean[numQueues] = {};
        while (sweeping.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(1ms);
            for (QueueId q = 0; q < numQueues; ++q) {
                const std::uint64_t rings = hp.ringCalls(q);
                const std::uint64_t delta = rings - prev[q];
                prev[q] = rings;
                if (hp.isMuted(q)) {
                    hp.pollActivate(q);
                    if (delta > ringCap) {
                        clean[q] = 0;
                    } else if (++clean[q] >= 3) {
                        hp.setMuted(q, false);
                        clean[q] = 0;
                        promotions.fetch_add(
                            1, std::memory_order_relaxed);
                    }
                } else if (delta > ringCap) {
                    hp.setMuted(q, true);
                    clean[q] = 0;
                    demotions.fetch_add(1, std::memory_order_relaxed);
                }
            }
        }
    });

    for (auto &t : producers)
        t.join();
    // Let the storm rage a little longer, then end it and give the
    // sweeper time to promote the queue back.
    std::this_thread::sleep_for(20ms);
    storming.store(false);
    storm.join();
    std::this_thread::sleep_for(30ms);

    EXPECT_TRUE(pool.drain(std::chrono::seconds(2)));
    sweeping.store(false);
    sweeper.join();

    for (QueueId q = 0; q < numQueues - 1; ++q) {
        EXPECT_EQ(served[q].load(), healthyItems) << "queue " << q;
    }
    EXPECT_GE(demotions.load(), 1u);
    EXPECT_GE(promotions.load(), 1u);
    EXPECT_GT(hp.mutedRings(), 0u);
}

// --- Loopback isolation (skips without sockets) ---

#define START_OR_SKIP(srv)                                             \
    do {                                                               \
        if (!(srv).start())                                            \
            GTEST_SKIP()                                               \
                << "UDP loopback sockets unavailable in this sandbox"; \
    } while (0)

server::ServerConfig
twoTenantConfig(double aggressorLimit)
{
    server::ServerConfig sc;
    sc.rxThreads = 1;
    sc.workers = 2;
    sc.numQueues = 8;
    sc.policy = core::ServicePolicy::WeightedRoundRobin;
    sc.tenants = {spec("victim", 4, 1, 1e5, 0, 4),
                  spec("aggressor", 1, 0, aggressorLimit, 4, 4)};
    return sc;
}

server::LoadGenConfig
tenantLoad(const server::UdpServer &srv, unsigned tenantId, double rate,
           double seconds)
{
    server::LoadGenConfig lg;
    lg.serverPort = srv.port();
    lg.ratePerSec = rate;
    lg.durationSec = seconds;
    lg.numFlows = 32;
    lg.tenantId = tenantId;
    lg.numTenants = 2;
    lg.seed = 17 + tenantId;
    return lg;
}

TEST(ServerTenantLoopback, StartThrowsOnMalformedTenants)
{
    server::ServerConfig sc;
    sc.tenants = {spec("a", 1, 0, 0.0, 0, 8),
                  spec("b", 1, 0, 0.0, 4, 4)};
    sc.numQueues = 8;
    server::UdpServer srv(sc);
    // Tenant validation runs before any socket exists, so this throws
    // even in sandboxes where bind() is denied.
    EXPECT_THROW(srv.start(), std::invalid_argument);
}

TEST(ServerTenantLoopback, RateLimitedExcessIsShedNotLost)
{
    server::UdpServer srv(twoTenantConfig(1000.0));
    START_OR_SKIP(srv);

    auto report =
        server::UdpLoadGen(tenantLoad(srv, 1, 8000.0, 0.4)).run();
    ASSERT_TRUE(report.has_value());

    // The excess over the 1k/s admitted rate came back as typed
    // rejects: answered, not lost, and not an error status.
    EXPECT_GT(report->shed, 0u);
    EXPECT_EQ(report->badStatus, 0u);
    EXPECT_GT(report->answeredRatio, 0.99);
    EXPECT_LT(report->lost, report->sent / 20 + 1);

    const auto &tt = srv.tenantTable();
    EXPECT_GT(tt.counters(1).rateLimited.load(), 0u);
    EXPECT_GT(tt.counters(1).admitted.load(), 0u);
    EXPECT_EQ(tt.counters(0).admitted.load(), 0u);
    EXPECT_EQ(report->shed, tt.counters(1).shedTotal());
    EXPECT_TRUE(srv.stop());
}

TEST(ServerTenantLoopback, StormingTenantIsDemotedAndPromoted)
{
    server::ServerConfig sc = twoTenantConfig(2000.0);
    sc.fault.doorbellRateCap = 10;
    sc.fault.stormTenant = 1;
    sc.fault.stormRingsPerBatch = 32;
    sc.fault.watchdogPeriodUs = 500.0;
    sc.fault.promoteCleanSweeps = 4;
    server::UdpServer srv(sc);
    START_OR_SKIP(srv);

    auto victimRep =
        server::UdpLoadGen(tenantLoad(srv, 0, 2000.0, 0.3)).run();
    auto aggrRep =
        server::UdpLoadGen(tenantLoad(srv, 1, 8000.0, 0.3)).run();
    ASSERT_TRUE(victimRep.has_value());
    ASSERT_TRUE(aggrRep.has_value());

    // Post-storm quiet time: enough clean sweeps to promote back.
    std::this_thread::sleep_for(100ms);

    const auto &c = srv.counters();
    EXPECT_GE(c.stormDemotions.load(), 1u);
    EXPECT_GE(c.promotions.load(), 1u);
    EXPECT_GT(srv.device().mutedRings(), 0u);
    const auto &tt = srv.tenantTable();
    EXPECT_GE(tt.counters(1).demotions.load(), 1u);
    EXPECT_EQ(tt.counters(0).demotions.load(), 0u);

    // Containment is not loss: both tenants' admitted traffic was
    // answered.
    EXPECT_GT(victimRep->answeredRatio, 0.99);
    EXPECT_GT(aggrRep->answeredRatio, 0.99);
    EXPECT_TRUE(srv.stop());
}

TEST(ServerTenantLoopback, PerTenantStatsAreRegistered)
{
    server::UdpServer srv(twoTenantConfig(1000.0));
    START_OR_SKIP(srv);

    stats::Registry reg;
    srv.registerStats(reg);
    EXPECT_TRUE(reg.has("server.tenant.victim.admitted"));
    EXPECT_TRUE(reg.has("server.tenant.victim.served"));
    EXPECT_TRUE(reg.has("server.tenant.aggressor.rate_limited"));
    EXPECT_TRUE(reg.has("server.tenant.aggressor.demotions"));
    EXPECT_TRUE(reg.has("server.shed_rate_limited"));
    EXPECT_TRUE(reg.has("server.dev.muted_rings"));

    auto report =
        server::UdpLoadGen(tenantLoad(srv, 1, 6000.0, 0.2)).run();
    ASSERT_TRUE(report.has_value());
    EXPECT_GT(reg.value("server.tenant.aggressor.rate_limited"), 0.0);
    EXPECT_EQ(reg.value("server.tenant.victim.admitted"), 0.0);
    EXPECT_TRUE(srv.stop());
}

} // namespace
} // namespace hyperplane
