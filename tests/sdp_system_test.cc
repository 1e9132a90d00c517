/**
 * @file
 * Integration tests: full SdpSystem runs reproducing the paper's
 * qualitative claims on small, fast configurations.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "dp/sdp_system.hh"
#include "harness/runner.hh"

namespace hyperplane {
namespace dp {
namespace {

SdpConfig
baseConfig(PlaneKind plane)
{
    SdpConfig cfg;
    cfg.plane = plane;
    cfg.numCores = 1;
    cfg.numQueues = 64;
    cfg.workload = workloads::Kind::PacketEncapsulation;
    cfg.shape = traffic::Shape::PC;
    cfg.offeredRatePerSec = 1e5;
    cfg.warmupUs = 500.0;
    cfg.measureUs = 5000.0;
    cfg.seed = 7;
    return cfg;
}

TEST(SdpSystem, CompletesWorkAtModerateLoad)
{
    const auto r = runSdp(baseConfig(PlaneKind::HyperPlane));
    EXPECT_GT(r.completions, 100u);
    EXPECT_GT(r.avgLatencyUs, 0.0);
    EXPECT_GE(r.p99LatencyUs, r.p50LatencyUs);
    EXPECT_EQ(r.dropped, 0u);
}

TEST(SdpSystem, SpinningPlaneAlsoCompletesWork)
{
    const auto r = runSdp(baseConfig(PlaneKind::Spinning));
    EXPECT_GT(r.completions, 100u);
    // Spinning cores never halt.
    EXPECT_NEAR(r.activeFraction, 1.0, 0.01);
    EXPECT_GT(r.uselessIpc, 0.0);
}

TEST(SdpSystem, ThroughputMatchesOfferedLoadBelowSaturation)
{
    for (PlaneKind plane :
         {PlaneKind::Spinning, PlaneKind::HyperPlane}) {
        const auto r = runSdp(baseConfig(plane));
        // Offered 0.1 Mtps at ~15% utilization: completions must track
        // arrivals closely.
        EXPECT_NEAR(r.throughputMtps, 0.1, 0.02)
            << toString(plane);
    }
}

TEST(SdpSystem, HyperPlaneIsWorkProportional)
{
    // Paper Figure 11: HyperPlane's core activity scales with load;
    // spinning is pegged at 100% with high useless IPC.
    auto cfg = baseConfig(PlaneKind::HyperPlane);
    const auto light = runSdp(cfg);
    EXPECT_LT(light.activeFraction, 0.5);
    EXPECT_LT(light.uselessIpc, 0.05);

    const auto spin = runSdp(baseConfig(PlaneKind::Spinning));
    EXPECT_GT(spin.uselessIpc, 0.5);
    EXPECT_GT(spin.ipc, light.ipc);
}

TEST(SdpSystem, HyperPlaneUsesLessPowerAtLightLoad)
{
    const auto hp = runSdp(baseConfig(PlaneKind::HyperPlane));
    const auto spin = runSdp(baseConfig(PlaneKind::Spinning));
    EXPECT_LT(hp.avgCorePowerW, 0.6 * spin.avgCorePowerW);
}

TEST(SdpSystem, PowerOptimizedModeSavesMorePower)
{
    auto cfg = baseConfig(PlaneKind::HyperPlane);
    const auto regular = runSdp(cfg);
    cfg.powerOptimized = true;
    const auto optimized = runSdp(cfg);
    EXPECT_LT(optimized.avgCorePowerW, regular.avgCorePowerW);
    // ...at some latency cost from the C1 wake-up.
    EXPECT_GT(optimized.avgLatencyUs, regular.avgLatencyUs);
}

TEST(SdpSystem, HyperPlaneLatencyBeatsSpinningAtManyQueues)
{
    // Figure 9: with hundreds of mostly-empty queues the spinning sweep
    // dominates latency; HyperPlane stays flat.
    auto spinCfg = harness::zeroLoadConfig(
        baseConfig(PlaneKind::Spinning), 400);
    spinCfg.numQueues = 256;
    spinCfg.jitter = ServiceJitter::None;
    auto hpCfg = spinCfg;
    hpCfg.plane = PlaneKind::HyperPlane;
    const auto spin = runSdp(spinCfg);
    const auto hp = runSdp(hpCfg);
    EXPECT_GT(spin.avgLatencyUs, 2.0 * hp.avgLatencyUs);
    EXPECT_GT(spin.p99LatencyUs, 3.0 * hp.p99LatencyUs);
}

TEST(SdpSystem, SpinningWinsSlightlyWithOneQueue)
{
    // Figure 9 text: at a single queue the spinning plane reacts faster
    // (QWAIT costs ~50 cycles); HyperPlane loses by at most ~3%.
    auto spinCfg =
        harness::zeroLoadConfig(baseConfig(PlaneKind::Spinning), 400);
    spinCfg.numQueues = 1;
    spinCfg.shape = traffic::Shape::SQ;
    spinCfg.jitter = ServiceJitter::None;
    auto hpCfg = spinCfg;
    hpCfg.plane = PlaneKind::HyperPlane;
    const auto spin = runSdp(spinCfg);
    const auto hp = runSdp(hpCfg);
    EXPECT_LT(spin.avgLatencyUs, hp.avgLatencyUs);
    EXPECT_LT(hp.avgLatencyUs / spin.avgLatencyUs, 1.06);
}

TEST(SdpSystem, HyperPlanePeakThroughputAtLeastSpinnings)
{
    auto cfg = baseConfig(PlaneKind::Spinning);
    cfg.numQueues = 128;
    cfg.shape = traffic::Shape::SQ;
    const auto spin = harness::measureAtSaturation(cfg);
    cfg.plane = PlaneKind::HyperPlane;
    const auto hp = harness::measureAtSaturation(cfg);
    // SQ with many empty queues: HyperPlane wins clearly (Figure 8).
    EXPECT_GT(hp.throughputMtps, 1.2 * spin.throughputMtps);
}

TEST(SdpSystem, MulticoreScaleUpScalesThroughput)
{
    auto cfg = baseConfig(PlaneKind::HyperPlane);
    cfg.shape = traffic::Shape::FB;
    cfg.numQueues = 64;
    const auto one = harness::measureAtSaturation(cfg);
    cfg.numCores = 4;
    cfg.org = QueueOrg::ScaleUpAll;
    const auto four = harness::measureAtSaturation(cfg);
    EXPECT_GT(four.throughputMtps, 3.0 * one.throughputMtps);
}

TEST(SdpSystem, ScaleUpSpinningSuffersFromSynchronization)
{
    // Figure 10(a): scale-up spinning pays sync + ping-pong costs that
    // scale-out avoids.
    auto cfg = baseConfig(PlaneKind::Spinning);
    cfg.numCores = 4;
    cfg.numQueues = 64;
    cfg.shape = traffic::Shape::FB;
    cfg.org = QueueOrg::ScaleOut;
    const auto scaleOut = harness::measureAtSaturation(cfg);
    cfg.org = QueueOrg::ScaleUpAll;
    const auto scaleUp = harness::measureAtSaturation(cfg);
    EXPECT_LT(scaleUp.throughputMtps, scaleOut.throughputMtps);
}

TEST(SdpSystem, SoftwareReadySetSlowerUnderBalancedTraffic)
{
    // Figure 13: the software iterator pays per-ready-entry costs.
    auto cfg = baseConfig(PlaneKind::HyperPlane);
    cfg.shape = traffic::Shape::FB;
    cfg.numQueues = 256;
    const auto hw = harness::measureAtSaturation(cfg);
    cfg.plane = PlaneKind::HyperPlaneSwReady;
    const auto sw = harness::measureAtSaturation(cfg);
    EXPECT_LT(sw.throughputMtps, 0.95 * hw.throughputMtps);
}

TEST(SdpSystem, SpuriousWakeupsAreRare)
{
    const auto r = runSdp(baseConfig(PlaneKind::HyperPlane));
    EXPECT_LT(static_cast<double>(r.spuriousWakeups),
              0.05 * static_cast<double>(r.completions + 1));
}

TEST(SdpSystem, DeterministicForFixedSeed)
{
    const auto a = runSdp(baseConfig(PlaneKind::HyperPlane));
    const auto b = runSdp(baseConfig(PlaneKind::HyperPlane));
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_DOUBLE_EQ(a.avgLatencyUs, b.avgLatencyUs);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

TEST(SdpSystem, SeedChangesResults)
{
    auto cfg = baseConfig(PlaneKind::HyperPlane);
    const auto a = runSdp(cfg);
    cfg.seed = 1234;
    const auto b = runSdp(cfg);
    EXPECT_NE(a.completions, b.completions);
}

TEST(SdpSystem, ServicePolicyConfigurable)
{
    for (auto policy : {core::ServicePolicy::RoundRobin,
                        core::ServicePolicy::WeightedRoundRobin,
                        core::ServicePolicy::StrictPriority}) {
        auto cfg = baseConfig(PlaneKind::HyperPlane);
        cfg.policy = policy;
        const auto r = runSdp(cfg);
        EXPECT_GT(r.completions, 100u);
    }
}

TEST(SdpSystem, BatchedDequeueStillCompletesEverything)
{
    auto cfg = baseConfig(PlaneKind::HyperPlane);
    cfg.batchSize = 8;
    const auto r = runSdp(cfg);
    EXPECT_NEAR(r.throughputMtps, 0.1, 0.02);
}

TEST(SdpSystem, ClusteredOrganizationsPartitionQueues)
{
    auto cfg = baseConfig(PlaneKind::HyperPlane);
    cfg.numCores = 4;
    cfg.numQueues = 64;
    cfg.org = QueueOrg::ScaleUp2;
    SdpSystem sys(cfg);
    EXPECT_EQ(sys.numClusters(), 2u);
    ASSERT_NE(sys.qwaitUnit(0), nullptr);
    ASSERT_NE(sys.qwaitUnit(1), nullptr);
    EXPECT_EQ(sys.qwaitUnit(2), nullptr);
    // Cores 0,1 serve queues 0..31; cores 2,3 serve 32..63.
    EXPECT_EQ(sys.core(0).assignedQueues().front(), 0u);
    EXPECT_EQ(sys.core(2).assignedQueues().front(), 32u);
    EXPECT_TRUE(sys.qwaitUnit(0)->doorbellOf(0).has_value());
    EXPECT_FALSE(sys.qwaitUnit(0)->doorbellOf(32).has_value());
}

TEST(SdpConfigValidate, RejectsDegenerateConfigs)
{
    auto expectRejected = [](auto mutate) {
        SdpConfig cfg = baseConfig(PlaneKind::HyperPlane);
        mutate(cfg);
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
        EXPECT_THROW(SdpSystem sys(cfg), std::invalid_argument);
    };
    expectRejected([](SdpConfig &c) { c.numCores = 0; });
    expectRejected([](SdpConfig &c) { c.numQueues = 0; });
    expectRejected([](SdpConfig &c) { c.monitoringWays = 0; });
    expectRejected([](SdpConfig &c) { c.monitoringWays = 1; });
    expectRejected([](SdpConfig &c) { c.monitoringWays = 9; });
    expectRejected([](SdpConfig &c) { c.monitoringBanks = 0; });
    expectRejected([](SdpConfig &c) { c.monitoringMaxWalkSteps = 0; });
    expectRejected([](SdpConfig &c) { c.monitoringCapacity = 3; });
    expectRejected([](SdpConfig &c) { c.batchSize = 0; });
    expectRejected([](SdpConfig &c) { c.offeredRatePerSec = 0.0; });
    expectRejected([](SdpConfig &c) { c.measureUs = 0.0; });
    expectRejected([](SdpConfig &c) { c.maxQueueDepth = 0; });
    expectRejected([](SdpConfig &c) { c.fault.dropSnoopRate = 1.5; });
    expectRejected([](SdpConfig &c) { c.fault.suppressWakeRate = -0.1; });
    expectRejected([](SdpConfig &c) {
        c.fault.delaySnoopRate = 0.1;
        c.fault.delayMeanUs = 0.0;
    });
    expectRejected([](SdpConfig &c) {
        c.fault.stormRatePerSec = 1e3;
        c.fault.stormBurst = 0;
    });
    expectRejected([](SdpConfig &c) {
        c.fault.stormRatePerSec = 1e3;
        c.fault.stormQueue = c.numQueues;
    });
    expectRejected([](SdpConfig &c) {
        c.recovery.watchdog = true;
        c.recovery.watchdogPeriodUs = 0.0;
    });
    expectRejected([](SdpConfig &c) {
        c.numCores = 4;
        c.numQueues = 2;
        c.org = QueueOrg::ScaleOut; // fewer queues than clusters
    });
}

TEST(SdpConfigValidate, AcceptsEveryDefaultPlane)
{
    for (PlaneKind k :
         {PlaneKind::Spinning, PlaneKind::HyperPlane,
          PlaneKind::HyperPlaneSwReady, PlaneKind::InterruptDriven}) {
        EXPECT_NO_THROW(baseConfig(k).validate());
    }
}

} // namespace
} // namespace dp
} // namespace hyperplane
