/**
 * @file
 * Unit tests for the counter, the statistics registry and
 * SdpSystem::dumpStats.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "dp/sdp_system.hh"
#include "json_check.hh"
#include "sim/logging.hh"
#include "stats/counter.hh"
#include "stats/registry.hh"

namespace hyperplane {
namespace stats {
namespace {

TEST(Counter, IncrementAndName)
{
    Counter c("events");
    EXPECT_EQ(c.name(), "events");
    c.inc();
    c.inc(9);
    EXPECT_EQ(c.value(), 10u);
    c.clear();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Registry, CountersReadAtReportTime)
{
    Registry reg;
    Counter c("hits");
    reg.add("cache.hits", c);
    c.inc(5);
    EXPECT_EQ(reg.value("cache.hits"), 5.0);
    c.inc(2);
    EXPECT_EQ(reg.value("cache.hits"), 7.0);
}

TEST(Registry, ScalarsEvaluateLazily)
{
    Registry reg;
    double x = 1.0;
    reg.addScalar("derived.x", [&x] { return x * 2; });
    x = 21.0;
    EXPECT_DOUBLE_EQ(reg.value("derived.x"), 42.0);
}

TEST(Registry, ReportSortedByPath)
{
    Registry reg;
    Counter a("z"), b("a");
    reg.add("z.last", a);
    reg.add("a.first", b);
    const std::string out = reg.report();
    EXPECT_LT(out.find("a.first"), out.find("z.last"));
}

TEST(Registry, ReportFormatsIntegersWithoutFraction)
{
    Registry reg;
    Counter c("n");
    c.inc(123);
    reg.add("n", c);
    reg.addScalar("pi", [] { return 3.25; });
    const std::string out = reg.report();
    EXPECT_NE(out.find("n = 123\n"), std::string::npos);
    EXPECT_NE(out.find("pi = 3.25\n"), std::string::npos);
}

TEST(Registry, AddGroupUsesCounterNames)
{
    Registry reg;
    Counter a("alpha"), b("beta");
    a.inc(1);
    b.inc(2);
    reg.addGroup("grp", {a, b});
    EXPECT_EQ(reg.value("grp.alpha"), 1.0);
    EXPECT_EQ(reg.value("grp.beta"), 2.0);
}

TEST(Registry, UnknownPathIsNaN)
{
    Registry reg;
    EXPECT_TRUE(std::isnan(reg.value("nope")));
}

TEST(Registry, DuplicatePathWarnsAndFirstWins)
{
    Registry reg;
    Counter a("x"), b("x");
    a.inc(1);
    b.inc(2);
    reg.add("dup.x", a);
    const unsigned long warnsBefore = warnCount();
    reg.add("dup.x", b);
    EXPECT_EQ(warnCount(), warnsBefore + 1);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.value("dup.x"), 1.0);
}

TEST(Registry, HasAndPathsReflectEntries)
{
    Registry reg;
    reg.addScalar("b.two", [] { return 2.0; });
    reg.addScalar("a.one", [] { return 1.0; });
    reg.addScalar("c.three", [] { return 3.0; });
    EXPECT_TRUE(reg.has("a.one"));
    EXPECT_FALSE(reg.has("a.on"));
    EXPECT_FALSE(reg.has("a.one "));
    const auto paths = reg.paths();
    ASSERT_EQ(paths.size(), 3u);
    EXPECT_EQ(paths[0], "a.one");
    EXPECT_EQ(paths[1], "b.two");
    EXPECT_EQ(paths[2], "c.three");
}

TEST(Registry, ValueLookupWorksAcrossManySortedEntries)
{
    // Exercises the binary search over the sorted entry vector.
    Registry reg;
    std::vector<double> vals(100);
    for (int i = 0; i < 100; ++i) {
        vals[i] = i * 1.5;
        char path[32];
        std::snprintf(path, sizeof(path), "grp%02d.v", i);
        reg.addScalar(path, [&vals, i] { return vals[i]; });
    }
    for (int i = 0; i < 100; ++i) {
        char path[32];
        std::snprintf(path, sizeof(path), "grp%02d.v", i);
        EXPECT_DOUBLE_EQ(reg.value(path), i * 1.5);
    }
    EXPECT_TRUE(std::isnan(reg.value("grp50")));   // prefix only
    EXPECT_TRUE(std::isnan(reg.value("grp50.vv"))); // longer
}

TEST(Registry, ReportJsonIsWellFormed)
{
    Registry reg;
    Counter c("hits");
    c.inc(42);
    reg.add("cache.hits", c);
    reg.addScalar("frac", [] { return 0.5; });
    reg.addScalar("bad", [] { return std::nan(""); });
    const std::string json = reg.reportJson();
    EXPECT_TRUE(hyperplane::testing::jsonWellFormed(json)) << json;
    EXPECT_NE(json.find("\"cache.hits\":42"), std::string::npos);
    EXPECT_NE(json.find("\"frac\":0.5"), std::string::npos);
    // Non-finite values serialize as null, keeping the document valid.
    EXPECT_NE(json.find("\"bad\":null"), std::string::npos);
}

TEST(Registry, SdpSystemReportJsonParses)
{
    dp::SdpConfig cfg;
    cfg.plane = dp::PlaneKind::HyperPlane;
    cfg.numCores = 1;
    cfg.numQueues = 16;
    cfg.offeredRatePerSec = 5e4;
    cfg.warmupUs = 200.0;
    cfg.measureUs = 1000.0;
    cfg.seed = 5;
    dp::SdpSystem sys(cfg);
    sys.run();
    const std::string json = sys.registry().reportJson();
    EXPECT_TRUE(hyperplane::testing::jsonWellFormed(json));
    EXPECT_NE(json.find("\"core0.tasks\""), std::string::npos);
}

TEST(Registry, SdpSystemDumpContainsComponentStats)
{
    dp::SdpConfig cfg;
    cfg.plane = dp::PlaneKind::HyperPlane;
    cfg.numCores = 1;
    cfg.numQueues = 16;
    cfg.offeredRatePerSec = 5e4;
    cfg.warmupUs = 200.0;
    cfg.measureUs = 2000.0;
    cfg.seed = 5;
    dp::SdpSystem sys(cfg);
    sys.run();
    std::ostringstream os;
    sys.dumpStats(os);
    const std::string out = os.str();
    for (const char *key :
         {"mem.l1_hits", "source.arrivals_generated",
          "hyperplane0.qwait_calls", "hyperplane0.monitoring.inserts",
          "hyperplane0.ready.grants", "core0.tasks",
          "core0.halt_ticks"}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }
    // The monitoring set still holds all 16 doorbells.
    EXPECT_NE(out.find("hyperplane0.monitoring.occupancy = 16"),
              std::string::npos);
}

} // namespace
} // namespace stats
} // namespace hyperplane
