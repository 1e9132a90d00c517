/**
 * @file
 * Unit tests for the telemetry plane: sharded counters, histogram
 * shards, Prometheus rendering, build info, and the HTTP metrics
 * endpoint (skipped without sockets).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "json_check.hh"
#include "net/simd/dispatch.hh"
#include "sim/rng.hh"
#include "stats/registry.hh"
#include "telemetry/build_info.hh"
#include "telemetry/metrics_server.hh"
#include "telemetry/prometheus.hh"
#include "telemetry/shard_stats.hh"

namespace hyperplane {
namespace telemetry {
namespace {

TEST(CounterShards, PerShardAddsAggregate)
{
    // Three shards over two tenants plus the no-tenant column.
    CounterShards cs(3, 2);
    cs.add(0, 0, Counter::RxPackets, 10);
    cs.add(1, 1, Counter::RxPackets, 20);
    cs.add(2, CounterShards::noTenant, Counter::RxPackets);
    cs.add(1, 0, Counter::Served, 5);
    cs.add(1, 1, Counter::Served, 7);
    cs.add(0, 2, Counter::Served, 3); // past the last tenant: no-tenant
    EXPECT_EQ(cs.total(Counter::RxPackets), 31u);
    EXPECT_EQ(cs.total(Counter::Served), 15u);
    EXPECT_EQ(cs.total(Counter::TxPackets), 0u);
    EXPECT_EQ(cs.shardValue(1, Counter::RxPackets), 20u);
    EXPECT_EQ(cs.shardValue(1, Counter::Served), 12u);
    EXPECT_EQ(cs.tenantTotal(0, Counter::Served), 5u);
    EXPECT_EQ(cs.tenantTotal(1, Counter::Served), 7u);
    EXPECT_EQ(cs.tenantTotal(CounterShards::noTenant, Counter::Served), 3u);
    EXPECT_EQ(cs.tenantTotal(1, Counter::RxPackets), 20u);
    // The total is exactly the tenant columns plus the no-tenant column.
    for (Counter c : {Counter::RxPackets, Counter::Served}) {
        EXPECT_EQ(cs.total(c),
                  cs.tenantTotal(0, c) + cs.tenantTotal(1, c) +
                      cs.tenantTotal(CounterShards::noTenant, c));
    }
}

TEST(CounterShards, ConcurrentWritersNeverLoseCounts)
{
    // One writer per shard is the contract; under TSan this checks the
    // relaxed load+store discipline is race-free.  Each writer spreads
    // its adds over every tenant column and the no-tenant column, so
    // neighbouring shards' blocks are written concurrently.
    constexpr unsigned shards = 4;
    constexpr unsigned tenants = 3;
    constexpr std::uint64_t perShard = 100000;
    CounterShards cs(shards, tenants);
    std::vector<std::thread> ts;
    for (unsigned s = 0; s < shards; ++s) {
        ts.emplace_back([&cs, s] {
            for (std::uint64_t i = 0; i < perShard; ++i) {
                const unsigned t = static_cast<unsigned>(i % (tenants + 1));
                cs.add(s, t < tenants ? t : CounterShards::noTenant,
                       Counter::RxPackets);
            }
        });
    }
    std::atomic<bool> run{true};
    std::thread reader([&] {
        std::uint64_t prev = 0;
        while (run.load(std::memory_order_relaxed)) {
            const std::uint64_t t = cs.total(Counter::RxPackets);
            ASSERT_GE(t, prev); // monotone under concurrent reads
            prev = t;
        }
    });
    for (auto &t : ts)
        t.join();
    run.store(false);
    reader.join();
    EXPECT_EQ(cs.total(Counter::RxPackets), shards * perShard);
    for (unsigned t = 0; t < tenants; ++t) {
        EXPECT_EQ(cs.tenantTotal(t, Counter::RxPackets),
                  shards * perShard / (tenants + 1));
    }
    EXPECT_EQ(cs.tenantTotal(CounterShards::noTenant, Counter::RxPackets),
              shards * perShard / (tenants + 1));
}

TEST(HistogramShard, MatchesLogHistogramQuantiles)
{
    stats::HistogramShard hs(100.0, 1.05, 512);
    stats::LogHistogram ref(100.0, 1.05, 512);
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.exponential(4000.0) + 100.0;
        hs.record(v);
        ref.record(v);
    }
    const stats::LogHistogram snap = hs.snapshot();
    EXPECT_EQ(snap.count(), ref.count());
    EXPECT_DOUBLE_EQ(snap.min(), ref.min());
    EXPECT_DOUBLE_EQ(snap.max(), ref.max());
    for (double q : {0.5, 0.9, 0.99, 0.999})
        EXPECT_DOUBLE_EQ(snap.quantile(q), ref.quantile(q));
}

TEST(StageLatencyShards, AggregatesAcrossShardsAndTenants)
{
    StageLatencyShards sl(2, 2);
    // Shard 0 records tenant 0, shard 1 records tenant 1.
    for (int i = 0; i < 100; ++i) {
        sl.record(0, ServerStage::EndToEnd, 0, 1000.0);
        sl.record(1, ServerStage::EndToEnd, 1, 9000.0);
    }
    sl.record(0, ServerStage::RxAdmit, 0, 500.0);

    EXPECT_EQ(sl.samples(ServerStage::EndToEnd), 200u);
    EXPECT_EQ(sl.samples(ServerStage::RxAdmit), 1u);
    EXPECT_EQ(sl.samples(ServerStage::ServiceTx), 0u);

    const auto t0 = sl.aggregate(ServerStage::EndToEnd, 0);
    const auto t1 = sl.aggregate(ServerStage::EndToEnd, 1);
    const auto all = sl.aggregate(ServerStage::EndToEnd);
    EXPECT_EQ(t0.count(), 100u);
    EXPECT_EQ(t1.count(), 100u);
    EXPECT_EQ(all.count(), 200u);
    // Tenant 1's samples are ~9x tenant 0's; the merged p50 must land
    // between the two tenant medians.
    EXPECT_LT(t0.quantile(0.5), t1.quantile(0.5));
    EXPECT_GE(all.quantile(0.5), t0.quantile(0.5));
    EXPECT_LE(all.quantile(0.5), t1.quantile(0.5));
}

TEST(Prometheus, SanitizesNamesAndEscapesLabels)
{
    EXPECT_EQ(sanitizeMetricName("server.rx_packets"),
              "hyperplane_server_rx_packets");
    EXPECT_EQ(sanitizeMetricName("tenant.bulk-1.p99 ns"),
              "hyperplane_tenant_bulk_1_p99_ns");
    EXPECT_EQ(escapeLabelValue("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

TEST(Prometheus, PageHasBuildInfoUptimeAndEveryEntry)
{
    stats::Registry reg;
    double weird = 0.0;
    reg.addScalar("unit.test.value", [] { return 42.0; });
    reg.addScalar("unit.test.weird", [&weird] { return weird; });
    weird = std::numeric_limits<double>::quiet_NaN();

    const std::string page = prometheusText(reg, 12.5);
    EXPECT_NE(page.find("hyperplane_build_info{"), std::string::npos);
    EXPECT_NE(page.find("cpu_features=\""), std::string::npos);
    EXPECT_NE(page.find("simd_checksum=\""), std::string::npos);
    EXPECT_NE(page.find("force_scalar=\""), std::string::npos);
    EXPECT_NE(page.find("hyperplane_uptime_seconds 12.5"),
              std::string::npos);
    EXPECT_NE(page.find("hyperplane_unit_test_value 42"),
              std::string::npos);
    EXPECT_NE(page.find("hyperplane_unit_test_weird NaN"),
              std::string::npos);
    // Exposition format: every line is "name{labels} value" or a
    // comment; no line may contain an unescaped bare quote outside
    // label values.  Cheap structural check: non-comment lines have
    // exactly one space separating name and value.
    std::size_t start = 0;
    while (start < page.size()) {
        std::size_t end = page.find('\n', start);
        if (end == std::string::npos)
            end = page.size();
        const std::string line = page.substr(start, end - start);
        if (!line.empty() && line[0] != '#' &&
            line.find('{') == std::string::npos) {
            EXPECT_EQ(std::count(line.begin(), line.end(), ' '), 1)
                << line;
        }
        start = end + 1;
    }
}

TEST(BuildInfo, IsPopulated)
{
    const BuildInfo &bi = buildInfo();
    ASSERT_NE(bi.gitSha, nullptr);
    ASSERT_NE(bi.buildType, nullptr);
    ASSERT_NE(bi.compiler, nullptr);
    EXPECT_GT(std::strlen(bi.gitSha), 0u);
    EXPECT_GT(std::strlen(bi.compiler), 0u);
    // SIMD provenance mirrors the dispatched kernel table.
    const auto &k = net::simd::kernels();
    ASSERT_NE(bi.cpuFeatures, nullptr);
    EXPECT_GT(std::strlen(bi.cpuFeatures), 0u);
    EXPECT_STREQ(bi.simdChecksum, k.checksumName);
    EXPECT_STREQ(bi.simdCrc32c, k.crc32cName);
    EXPECT_STREQ(bi.simdHeaderCheck, k.headerCheckName);
    EXPECT_EQ(bi.forcedScalar, k.forcedScalar);
}

/** Minimal HTTP GET against 127.0.0.1:port. */
std::string
httpGet(std::uint16_t port, const std::string &path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return {};
    timeval tv{2, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return {};
    }
    const std::string req =
        "GET " + path + " HTTP/1.0\r\nHost: t\r\n\r\n";
    if (::send(fd, req.data(), req.size(), 0) < 0) {
        ::close(fd);
        return {};
    }
    std::string resp;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        resp.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return resp;
}

TEST(MetricsServerTest, ServesHttpOrSkips)
{
    MetricsServer ms;
    const bool up = ms.start("127.0.0.1", 0,
                             [](const std::string &path,
                                std::string &contentType) {
                                 if (path == "/metrics") {
                                     contentType = "text/plain";
                                     return std::string("body 1\n");
                                 }
                                 return std::string();
                             });
    if (!up)
        GTEST_SKIP() << "sockets unavailable in this sandbox";
    ASSERT_GT(ms.port(), 0);

    const std::string ok = httpGet(ms.port(), "/metrics");
    if (ok.empty())
        GTEST_SKIP() << "TCP connect unavailable in this sandbox";
    EXPECT_NE(ok.find("200 OK"), std::string::npos);
    EXPECT_NE(ok.find("body 1"), std::string::npos);
    EXPECT_NE(ok.find("Content-Type: text/plain"), std::string::npos);

    const std::string missing = httpGet(ms.port(), "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos);

    EXPECT_EQ(ms.requestsServed(), 2u);
    ms.stop();
    EXPECT_FALSE(ms.running());
}

} // namespace
} // namespace telemetry
} // namespace hyperplane
