/**
 * @file
 * Tests for the parallel sweep runner: parallelFor mechanics, and the
 * headline contract that --jobs N produces byte-identical exports to
 * --jobs 1 for figure-style sweeps.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "dp/sdp_system.hh"
#include "harness/export.hh"
#include "harness/parallel.hh"
#include "harness/runner.hh"

namespace hyperplane {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (const unsigned jobs : {1u, 2u, 3u, 8u, 17u}) {
        constexpr std::size_t n = 1000;
        std::vector<std::atomic<int>> hits(n);
        harness::parallelFor(n, jobs, [&hits](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i << " with "
                                         << jobs << " jobs";
    }
}

TEST(ParallelFor, HandlesEdgeSizes)
{
    std::atomic<int> calls{0};
    harness::parallelFor(0, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
    harness::parallelFor(1, 4, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls.load(), 1);
    // More jobs than work: still every index once.
    harness::parallelFor(3, 64, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 4);
}

TEST(ParallelFor, SequentialModeRunsInIndexOrder)
{
    // jobs == 1 is the compatibility path: strict index order on the
    // calling thread, no pool.
    std::vector<std::size_t> order;
    harness::parallelFor(16, 1,
                         [&order](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, PropagatesFirstException)
{
    for (const unsigned jobs : {1u, 4u}) {
        std::atomic<int> started{0};
        try {
            harness::parallelFor(64, jobs, [&](std::size_t i) {
                ++started;
                if (i == 7)
                    throw std::runtime_error("boom");
            });
            FAIL() << "expected exception with " << jobs << " jobs";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom");
        }
        EXPECT_GE(started.load(), 1);
    }
}

TEST(ParallelFor, WorkerExceptionDoesNotLoseOtherWork)
{
    // After a throw the pool drains without deadlock and the call still
    // returns (by throwing); completed indices stay completed.
    std::vector<std::atomic<int>> hits(128);
    EXPECT_THROW(
        harness::parallelFor(128, 4,
                             [&hits](std::size_t i) {
                                 if (i == 0)
                                     throw std::logic_error("first");
                                 hits[i].fetch_add(1);
                             }),
        std::logic_error);
    for (std::size_t i = 1; i < hits.size(); ++i)
        ASSERT_LE(hits[i].load(), 1);
}

TEST(JobsFromArgs, ParsesFlag)
{
    const char *argv1[] = {"bench", "--jobs", "6"};
    EXPECT_EQ(harness::jobsFromArgs(3, const_cast<char **>(argv1)), 6u);
    const char *argv2[] = {"bench", "--jobs", "0"};
    EXPECT_EQ(harness::jobsFromArgs(3, const_cast<char **>(argv2)), 1u);
    const char *argvNeg[] = {"bench", "--jobs", "-3"};
    EXPECT_EQ(harness::jobsFromArgs(3, const_cast<char **>(argvNeg)), 1u);
    const char *argv3[] = {"bench"};
    EXPECT_EQ(harness::jobsFromArgs(1, const_cast<char **>(argv3)),
              harness::defaultJobs());
    EXPECT_GE(harness::defaultJobs(), 1u);
}

// --- byte-identical exports across jobs counts -----------------------

/** Short fig10-style series: multicore tail-latency load sweep. */
std::vector<harness::SweepSeries>
shortTailSeries()
{
    std::vector<harness::SweepSeries> series;
    for (const auto plane :
         {dp::PlaneKind::Spinning, dp::PlaneKind::HyperPlane}) {
        for (const auto org :
             {dp::QueueOrg::ScaleOut, dp::QueueOrg::ScaleUpAll}) {
            dp::SdpConfig cfg;
            cfg.numCores = 4;
            cfg.numQueues = 64;
            cfg.workload = workloads::Kind::PacketEncapsulation;
            cfg.shape = traffic::Shape::FB;
            cfg.plane = plane;
            cfg.org = org;
            cfg.warmupUs = 100.0;
            cfg.measureUs = 400.0;
            cfg.seed = 97;
            const std::string name =
                std::string(plane == dp::PlaneKind::Spinning ? "spin"
                                                             : "hp") +
                (org == dp::QueueOrg::ScaleOut ? "-out" : "-up");
            series.push_back({name, cfg});
        }
    }
    return series;
}

std::string
tailSweepJson(unsigned jobs)
{
    const std::vector<double> loads{0.2, 0.5, 0.8};
    const auto sweeps =
        harness::runLoadSweeps(shortTailSeries(), loads, jobs);
    std::vector<harness::NamedSweep> named;
    for (const auto &sw : sweeps)
        named.push_back({sw.name, sw.points});
    return harness::loadSweepJson(named);
}

TEST(SweepDeterminism, LoadSweepsByteIdenticalAcrossJobs)
{
    const std::string seq = tailSweepJson(1);
    EXPECT_FALSE(seq.empty());
    EXPECT_EQ(seq, tailSweepJson(8));
}

TEST(SweepDeterminism, LoadSweepsRepeatable)
{
    // Same jobs count twice: guards against any hidden shared state
    // between sweep points (RNG, registries, statics).
    EXPECT_EQ(tailSweepJson(4), tailSweepJson(4));
}

/** Short fig09-style grid: zero-load latency across queue counts. */
std::string
zeroLoadJson(unsigned jobs)
{
    std::vector<dp::SdpConfig> grid;
    for (const auto plane :
         {dp::PlaneKind::Spinning, dp::PlaneKind::HyperPlane}) {
        for (const int queues : {10, 100, 400}) {
            dp::SdpConfig cfg;
            cfg.plane = plane;
            cfg.numCores = 1;
            cfg.numQueues = queues;
            cfg.workload = workloads::Kind::PacketEncapsulation;
            cfg.shape = traffic::Shape::SQ;
            cfg.seed = 23;
            grid.push_back(harness::zeroLoadConfig(cfg, 300));
        }
    }
    const auto results = harness::runConfigs(grid, jobs);
    std::string out = "[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i != 0)
            out += ',';
        out += harness::resultsJson(results[i]);
    }
    return out + "]";
}

TEST(SweepDeterminism, ZeroLoadGridByteIdenticalAcrossJobs)
{
    const std::string seq = zeroLoadJson(1);
    EXPECT_FALSE(seq.empty());
    EXPECT_EQ(seq, zeroLoadJson(8));
}

TEST(SweepDeterminism, CapacityPropagationMatchesSequential)
{
    // fig12-style dependency: a series calibrated from another series'
    // capacity (capacityFrom) must see the same capacity under any jobs
    // count.
    auto series = shortTailSeries();
    dp::SdpConfig dependent = series[1].cfg; // hp reusing spin capacity
    series.push_back({"dependent", dependent, 0});
    const std::vector<double> loads{0.4};
    const auto seq = harness::runLoadSweeps(series, loads, 1);
    const auto par = harness::runLoadSweeps(series, loads, 8);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].name, par[i].name);
        EXPECT_EQ(seq[i].capacityPerSec, par[i].capacityPerSec);
    }
    EXPECT_EQ(seq.back().capacityPerSec, seq.front().capacityPerSec);
}

} // namespace
} // namespace hyperplane
