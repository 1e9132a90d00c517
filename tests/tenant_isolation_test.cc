/**
 * @file
 * Multi-tenant overload control: tenant spec validation, token-bucket
 * admission, the TenantTable, and end-to-end loopback isolation.  The
 * loopback tests skip with an annotation when the sandbox forbids
 * sockets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dp/sdp_system.hh"
#include "dp/tenant_spec.hh"
#include "server/loadgen.hh"
#include "server/server.hh"
#include "server/tenant.hh"
#include "stats/registry.hh"

namespace hyperplane {
namespace {

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

/** The server's registry names, less the handlers' own server.app.*. */
std::vector<std::string>
serverStatNames(server::UdpServer &srv)
{
    stats::Registry reg;
    srv.registerStats(reg);
    std::vector<std::string> names;
    for (const std::string &p : reg.paths()) {
        if (p.rfind("server.app.", 0) != 0)
            names.push_back(p);
    }
    return names;
}

// The server.* stats schema: every name registerStats exports besides
// the handlers' own server.app.*, pinned so a refactor of the counting
// behind them cannot rename, drop or add one unnoticed.
const char *const kServerWideStats[] = {
    "server.backlog",
    "server.dev.grants",
    "server.dev.qwait_timeouts",
    "server.dev.spurious_wakes",
    "server.dev.wakeups",
    "server.payload_copies",
    "server.pool.exhausted",
    "server.pool.frames_free",
    "server.pool.frames_total",
    "server.pool.reject_reserve_free",
    "server.pool_drops",
    "server.requests_served",
    "server.requests_served_inline",
    "server.responses_bad_status",
    "server.rx_batches",
    "server.rx_packets",
    "server.rx_parse_errors",
    "server.rx_queue_drops",
    "server.shed_queue_full",
    "server.shed_rate_limited",
    "server.shed_watermark",
    "server.simd.checksum_level",
    "server.simd.crc32c_level",
    "server.simd.force_scalar",
    "server.simd.header_level",
    "server.stage.admit_doorbell.count",
    "server.stage.admit_doorbell.mean_ns",
    "server.stage.admit_doorbell.p50_ns",
    "server.stage.admit_doorbell.p999_ns",
    "server.stage.admit_doorbell.p99_ns",
    "server.stage.e2e.count",
    "server.stage.e2e.mean_ns",
    "server.stage.e2e.p50_ns",
    "server.stage.e2e.p999_ns",
    "server.stage.e2e.p99_ns",
    "server.stage.qwait_service.count",
    "server.stage.qwait_service.mean_ns",
    "server.stage.qwait_service.p50_ns",
    "server.stage.qwait_service.p999_ns",
    "server.stage.qwait_service.p99_ns",
    "server.stage.rx_admit.count",
    "server.stage.rx_admit.mean_ns",
    "server.stage.rx_admit.p50_ns",
    "server.stage.rx_admit.p999_ns",
    "server.stage.rx_admit.p99_ns",
    "server.stage.service_tx.count",
    "server.stage.service_tx.mean_ns",
    "server.stage.service_tx.p50_ns",
    "server.stage.service_tx.p999_ns",
    "server.stage.service_tx.p99_ns",
    "server.telemetry.flight_recorded",
    "server.telemetry.flight_sample_every",
    "server.telemetry.metrics_requests",
    "server.tx_packets",
    "server.tx_send_errors",
    "server.uptime_seconds",
};

/** Names every tenant exports under server.tenant.<name>. */
const char *const kPerTenantStats[] = {
    "admitted",
    "queue_full_shed",
    "rate_limited",
    "served",
    "stage.admit_doorbell.p50_ns",
    "stage.admit_doorbell.p999_ns",
    "stage.admit_doorbell.p99_ns",
    "stage.e2e.p50_ns",
    "stage.e2e.p999_ns",
    "stage.e2e.p99_ns",
    "stage.qwait_service.p50_ns",
    "stage.qwait_service.p999_ns",
    "stage.qwait_service.p99_ns",
    "stage.rx_admit.p50_ns",
    "stage.rx_admit.p999_ns",
    "stage.rx_admit.p99_ns",
    "stage.service_tx.p50_ns",
    "stage.service_tx.p999_ns",
    "stage.service_tx.p99_ns",
    "watermark_shed",
};

std::vector<std::string>
expectedStatNames(std::initializer_list<const char *> tenants)
{
    std::vector<std::string> names(std::begin(kServerWideStats),
                                   std::end(kServerWideStats));
    for (const char *t : tenants) {
        for (const char *n : kPerTenantStats)
            names.push_back(std::string("server.tenant.") + t + "." + n);
    }
    std::sort(names.begin(), names.end());
    return names;
}

TEST(ServerTenantLoopback, StatsSchemaAndTenantSumsHold)
{
    {
        server::UdpServer srv(server::ServerConfig{});
        START_OR_SKIP(srv);
        EXPECT_EQ(serverStatNames(srv), expectedStatNames({"default"}));
        EXPECT_TRUE(srv.stop());
    }

    server::UdpServer srv(twoTenantConfig(1000.0));
    START_OR_SKIP(srv);
    EXPECT_EQ(serverStatNames(srv),
              expectedStatNames({"victim", "aggressor"}));

    // The victim stays under its limit; the aggressor runs at 8x its
    // 1k/s bucket, so its excess comes back as typed rejects.
    auto victimRep =
        server::UdpLoadGen(tenantLoad(srv, 0, 2000.0, 0.3)).run();
    auto aggrRep =
        server::UdpLoadGen(tenantLoad(srv, 1, 8000.0, 0.3)).run();
    ASSERT_TRUE(victimRep.has_value());
    ASSERT_TRUE(aggrRep.has_value());
    EXPECT_TRUE(srv.stop());

    stats::Registry reg;
    srv.registerStats(reg);
    const auto tenantValue = [&reg](const char *tenant, const char *n) {
        return reg.value(std::string("server.tenant.") + tenant + "." + n);
    };
    // Every tenant-scoped count is also in the server-wide total, and
    // nothing else is: both tenant groups cover every queue, so no
    // count lands outside a tenant.
    const std::pair<const char *, const char *> sums[] = {
        {"shed_rate_limited", "rate_limited"},
        {"shed_watermark", "watermark_shed"},
        {"shed_queue_full", "queue_full_shed"},
        {"requests_served", "served"},
    };
    for (const auto &[wide, perTenant] : sums) {
        EXPECT_EQ(reg.value(std::string("server.") + wide),
                  tenantValue("victim", perTenant) +
                      tenantValue("aggressor", perTenant))
            << wide;
    }
    EXPECT_GT(reg.value("server.shed_rate_limited"), 0.0);
    EXPECT_GT(reg.value("server.requests_served"), 0.0);

    // What each generator saw shed is exactly its tenant's shed total.
    const auto shedTotal = [&](const char *tenant) {
        return tenantValue(tenant, "rate_limited") +
               tenantValue(tenant, "watermark_shed") +
               tenantValue(tenant, "queue_full_shed");
    };
    EXPECT_EQ(static_cast<double>(victimRep->shed), shedTotal("victim"));
    EXPECT_EQ(static_cast<double>(aggrRep->shed), shedTotal("aggressor"));
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

    const server::ServerCounterSnapshot victim = srv.counterSnapshot(0);
    const server::ServerCounterSnapshot aggr = srv.counterSnapshot(1);
    EXPECT_GT(aggr.shedRateLimited, 0u);
    EXPECT_GT(aggr.admitted, 0u);
    EXPECT_EQ(victim.admitted, 0u);
    EXPECT_EQ(report->shed, aggr.shedTotal());
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
    EXPECT_TRUE(reg.has("server.shed_rate_limited"));

    auto report =
        server::UdpLoadGen(tenantLoad(srv, 1, 6000.0, 0.2)).run();
    ASSERT_TRUE(report.has_value());
    EXPECT_GT(reg.value("server.tenant.aggressor.rate_limited"), 0.0);
    EXPECT_EQ(reg.value("server.tenant.victim.admitted"), 0.0);
    EXPECT_TRUE(srv.stop());
}

} // namespace
} // namespace hyperplane
