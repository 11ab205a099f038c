/**
 * @file
 * Tests for the Monte-Carlo fault simulator
 * (src/reliability/faultsim).
 */

#include <gtest/gtest.h>

#include "reliability/faultsim.hh"

namespace ramp
{
namespace
{

TEST(FaultSim, ZeroFitProducesNoErrors)
{
    FaultSimConfig config = FaultSimConfig::ddrChipKill();
    config.rates = FitRates{};
    const FaultSim sim(config);
    const auto result = sim.run(1000, 1);
    EXPECT_EQ(result.noError, 1000u);
    EXPECT_EQ(result.uncorrected, 0u);
    EXPECT_EQ(result.pUncorrected, 0.0);
}

TEST(FaultSim, DrawFaultRespectsGeometry)
{
    const FaultSim sim(FaultSimConfig::ddrChipKill());
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        const auto fault = sim.drawFault(rng);
        EXPECT_LT(fault.chip, sim.config().chips);
        if (fault.bank != faultWildcard) {
            EXPECT_LT(fault.bank, sim.config().geometry.banks);
        }
        if (fault.row != faultWildcard) {
            EXPECT_LT(fault.row, sim.config().geometry.rows);
        }
        if (fault.column != faultWildcard) {
            EXPECT_LT(fault.column, sim.config().geometry.columns);
        }
    }
}

TEST(FaultSim, DrawFaultCoversAllModes)
{
    const FaultSim sim(FaultSimConfig::ddrChipKill());
    Rng rng(5);
    std::array<int, numFaultModes> seen{};
    for (int i = 0; i < 20000; ++i)
        ++seen[static_cast<std::size_t>(sim.drawFault(rng).mode)];
    for (int m = 0; m < numFaultModes; ++m)
        EXPECT_GT(seen[static_cast<std::size_t>(m)], 0)
            << faultModeName(static_cast<FaultMode>(m));
}

TEST(FaultSim, SecDedUncorrectedScalesWithFit)
{
    auto low = FaultSimConfig::hbmSecDed(1.0);
    auto high = FaultSimConfig::hbmSecDed(8.0);
    const auto low_result = FaultSim(low).run(40000, 7);
    const auto high_result = FaultSim(high).run(40000, 7);
    EXPECT_GT(high_result.pUncorrected, low_result.pUncorrected);
}

TEST(FaultSim, ChipKillFarMoreReliableThanSecDed)
{
    auto secded = FaultSimConfig::hbmSecDed(1.0);
    // Same FIT rates and data size, different organisation/ECC.
    auto chipkill = FaultSimConfig::ddrChipKill();
    chipkill.fitBoost = 30.0;
    const auto secded_result = FaultSim(secded).run(50000, 11);
    const auto chipkill_result = FaultSim(chipkill).run(200000, 11);
    ASSERT_GT(secded_result.fitUncorrectedPerGB, 0.0);
    EXPECT_GT(secded_result.fitUncorrectedPerGB,
              50.0 * chipkill_result.fitUncorrectedPerGB);
}

TEST(FaultSim, BoostRescalingIsConsistentForSecDed)
{
    // SEC-DED failures are single-fault dominated: a boosted run
    // rescaled by 1/boost should estimate the same probability.
    auto plain = FaultSimConfig::hbmSecDed(3.0);
    auto boosted = plain;
    boosted.fitBoost = 4.0;
    const auto p1 = FaultSim(plain).run(80000, 13).pUncorrected;
    const auto p2 = FaultSim(boosted).run(80000, 13).pUncorrected;
    ASSERT_GT(p1, 0.0);
    EXPECT_NEAR(p2 / p1, 1.0, 0.35);
}

TEST(FaultSim, OutcomeCountsSumToTrials)
{
    const FaultSim sim(FaultSimConfig::hbmSecDed());
    const auto result = sim.run(5000, 17);
    EXPECT_EQ(result.noError + result.corrected + result.uncorrected,
              5000u);
    EXPECT_GT(result.avgFaultsPerTrial, 0.0);
}

TEST(FaultSim, FitPerRankDerivation)
{
    const FaultSim sim(FaultSimConfig::hbmSecDed(3.0));
    const auto result = sim.run(50000, 19);
    // FIT = P / hours * 1e9; cross-check the arithmetic.
    EXPECT_NEAR(result.fitUncorrectedPerRank,
                result.pUncorrected / sim.config().hours * 1e9,
                1e-9);
    const double gb = static_cast<double>(sim.config().dataBytes) /
                      static_cast<double>(1ULL << 30);
    EXPECT_NEAR(result.fitUncorrectedPerGB,
                result.fitUncorrectedPerRank / gb, 1e-9);
}

TEST(FaultSim, DeterministicForSeed)
{
    const FaultSim sim(FaultSimConfig::hbmSecDed());
    const auto a = sim.run(20000, 23);
    const auto b = sim.run(20000, 23);
    EXPECT_EQ(a.uncorrected, b.uncorrected);
    EXPECT_EQ(a.corrected, b.corrected);
}

TEST(FaultSimDeathTest, BadConfigIsFatal)
{
    FaultSimConfig config = FaultSimConfig::ddrChipKill();
    config.chips = 0;
    EXPECT_EXIT(FaultSim{config}, ::testing::ExitedWithCode(1), "");
    FaultSimConfig bad_boost = FaultSimConfig::ddrChipKill();
    bad_boost.fitBoost = 0.5;
    EXPECT_EXIT(FaultSim{bad_boost}, ::testing::ExitedWithCode(1),
                "");
}

} // namespace
} // namespace ramp
