/**
 * @file
 * Unit tests for the core power model.
 */

#include <gtest/gtest.h>

#include "power/core_power.hh"

namespace hyperplane {
namespace power {
namespace {

TEST(CorePower, ActivePowerGrowsWithIpc)
{
    CorePowerModel m;
    EXPECT_LT(m.activePowerW(0.5), m.activePowerW(2.0));
    EXPECT_GE(m.activePowerW(0.0), m.params().staticW);
}

TEST(CorePower, ActivePowerSaturatesAtPeakIpc)
{
    CorePowerModel m;
    EXPECT_DOUBLE_EQ(m.activePowerW(m.params().ipcPeak),
                     m.activePowerW(m.params().ipcPeak * 2));
    EXPECT_DOUBLE_EQ(m.activePowerW(m.params().ipcPeak),
                     m.params().staticW + m.params().dynPeakW);
}

TEST(CorePower, HaltStatesOrdered)
{
    CorePowerModel m;
    EXPECT_LT(m.haltPowerW(true), m.haltPowerW(false));
    EXPECT_LT(m.haltPowerW(false), m.activePowerW(1.0));
}

TEST(CorePower, EnergyIntegratesOverTime)
{
    CorePowerModel m;
    const Tick oneMs = usToTicks(1000.0);
    m.addActive(oneMs, 2.0);
    const double expect = m.activePowerW(2.0) * 1e-3;
    EXPECT_NEAR(m.energyJ(), expect, expect * 1e-9);
    EXPECT_EQ(m.accountedTicks(), oneMs);
}

TEST(CorePower, AveragePowerMixesStates)
{
    CorePowerModel m;
    const Tick half = usToTicks(500.0);
    m.addActive(half, m.params().ipcPeak);
    m.addHalt(half, true);
    const double expect =
        (m.activePowerW(m.params().ipcPeak) + m.haltPowerW(true)) / 2.0;
    EXPECT_NEAR(m.averagePowerW(), expect, 1e-9);
}

TEST(CorePower, ClearResets)
{
    CorePowerModel m;
    m.addActive(1000, 1.0);
    m.clear();
    EXPECT_DOUBLE_EQ(m.energyJ(), 0.0);
    EXPECT_EQ(m.accountedTicks(), 0u);
    EXPECT_DOUBLE_EQ(m.averagePowerW(), 0.0);
}

TEST(CorePower, C1IdleNearSixteenPercentOfSaturation)
{
    // The Figure 12(a) calibration: C1 idle power ~16.2% of the core's
    // power at saturation-load IPC (~1.1).
    CorePowerModel m;
    const double satPower = m.activePowerW(1.1);
    EXPECT_NEAR(m.haltPowerW(true) / satPower, 0.162, 0.015);
}

} // namespace
} // namespace power
} // namespace hyperplane
