/**
 * @file
 * Calibration regression tests: the end-to-end simulation must keep
 * producing numbers in the bands the reproduction is calibrated to
 * (DESIGN.md Section 8).  These tests are the guard rail against
 * timing-model drift: if a refactor silently changes a cost model,
 * they fail before the figure benches quietly go off-shape.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "dp/sdp_system.hh"
#include "harness/runner.hh"

namespace hyperplane {
namespace dp {
namespace {

/**
 * Figure 8 single-core peak-throughput targets, million tasks/s.
 *
 * gtest names each instance after the raw bytes of its parameter, so
 * the padding after `kind` is spelled out and zeroed: left implicit it
 * holds whatever the stack did (often an ASLR-dependent address), and
 * the test names would change from one listing to the next.
 */
struct PeakBand
{
    workloads::Kind kind;
    std::array<std::uint8_t, 7> pad{};
    double lo;
    double hi;
};
static_assert(sizeof(PeakBand) ==
                  sizeof(workloads::Kind) + 7 + 2 * sizeof(double),
              "PeakBand must have no implicit padding");

class PeakCalibration : public ::testing::TestWithParam<PeakBand>
{
};

TEST_P(PeakCalibration, HyperPlanePeakInPaperBand)
{
    const PeakBand band = GetParam();
    SdpConfig cfg;
    cfg.plane = PlaneKind::HyperPlane;
    cfg.numCores = 1;
    cfg.numQueues = 100;
    cfg.workload = band.kind;
    cfg.shape = traffic::Shape::SQ;
    cfg.seed = 201;
    cfg.warmupUs = 500.0;
    cfg.measureUs = 4000.0;
    const auto r = harness::measureAtSaturation(cfg);
    EXPECT_GE(r.throughputMtps, band.lo)
        << workloads::toString(band.kind);
    EXPECT_LE(r.throughputMtps, band.hi)
        << workloads::toString(band.kind);
}

INSTANTIATE_TEST_SUITE_P(
    Fig8Axes, PeakCalibration,
    ::testing::Values(
        PeakBand{.kind = workloads::Kind::PacketEncapsulation,
                 .lo = 0.45, .hi = 0.95},
        PeakBand{.kind = workloads::Kind::CryptoForwarding,
                 .lo = 0.09, .hi = 0.20},
        PeakBand{.kind = workloads::Kind::PacketSteering,
                 .lo = 0.25, .hi = 0.52},
        PeakBand{.kind = workloads::Kind::ErasureCoding,
                 .lo = 0.07, .hi = 0.16},
        PeakBand{.kind = workloads::Kind::RaidProtection,
                 .lo = 0.15, .hi = 0.33},
        PeakBand{.kind = workloads::Kind::RequestDispatching,
                 .lo = 0.42, .hi = 0.90}));

TEST(Calibration, SpinningZeroLoadSlopeMatchesFig9Anchor)
{
    // The Figure 9(a) anchor: ~60 us average / ~160 us p99 at 1000
    // queues for a light workload (we accept a generous band).
    SdpConfig cfg;
    cfg.plane = PlaneKind::Spinning;
    cfg.numCores = 1;
    cfg.numQueues = 1000;
    cfg.workload = workloads::Kind::PacketEncapsulation;
    cfg.shape = traffic::Shape::SQ;
    cfg.jitter = ServiceJitter::None;
    cfg.seed = 202;
    cfg = harness::zeroLoadConfig(cfg, 600);
    const auto r = runSdp(cfg);
    EXPECT_GT(r.avgLatencyUs, 40.0);
    EXPECT_LT(r.avgLatencyUs, 100.0);
    EXPECT_GT(r.p99LatencyUs, 90.0);
    EXPECT_LT(r.p99LatencyUs, 220.0);
}

TEST(Calibration, HyperPlaneZeroLoadLatencyUnderTenMicroseconds)
{
    // Figure 9(b): HyperPlane stays below 10 us at 1000 queues for
    // every workload.
    for (auto kind : workloads::allKinds()) {
        SdpConfig cfg;
        cfg.plane = PlaneKind::HyperPlane;
        cfg.numCores = 1;
        cfg.numQueues = 1000;
        cfg.workload = kind;
        cfg.shape = traffic::Shape::SQ;
        cfg.jitter = ServiceJitter::None;
        cfg.seed = 203;
        cfg = harness::zeroLoadConfig(cfg, 300);
        const auto r = runSdp(cfg);
        EXPECT_LT(r.avgLatencyUs, 10.0) << workloads::toString(kind);
    }
}

TEST(Calibration, SpinningIdleIpcNearPaperFigure11)
{
    SdpConfig cfg;
    cfg.plane = PlaneKind::Spinning;
    cfg.numCores = 1;
    cfg.numQueues = 100;
    cfg.workload = workloads::Kind::PacketEncapsulation;
    cfg.shape = traffic::Shape::PC;
    cfg.offeredRatePerSec = 2000.0; // ~0 load
    cfg.warmupUs = 500.0;
    cfg.measureUs = 4000.0;
    cfg.seed = 204;
    const auto r = runSdp(cfg);
    EXPECT_GT(r.ipc, 1.3);
    EXPECT_LT(r.ipc, 2.8);
}

TEST(Calibration, PowerOptimizedIdleNearSixteenPercent)
{
    // Figure 12(a): power-optimized HyperPlane idles at ~16% of the
    // spinning plane's saturation power.
    SdpConfig cfg;
    cfg.plane = PlaneKind::Spinning;
    cfg.numCores = 1;
    cfg.numQueues = 100;
    cfg.workload = workloads::Kind::PacketEncapsulation;
    cfg.shape = traffic::Shape::PC;
    cfg.seed = 205;
    cfg.warmupUs = 500.0;
    cfg.measureUs = 4000.0;
    const auto sat = harness::measureAtSaturation(cfg);

    cfg.plane = PlaneKind::HyperPlane;
    cfg.powerOptimized = true;
    cfg.offeredRatePerSec = 2000.0;
    const auto idle = runSdp(cfg);
    const double frac = idle.avgCorePowerW / sat.avgCorePowerW;
    EXPECT_GT(frac, 0.12);
    EXPECT_LT(frac, 0.22);
}

} // namespace
} // namespace dp
} // namespace hyperplane
