// Unit tests for environmental scaling (temperature / supply voltage).
#include <gtest/gtest.h>

#include "fpga/fabric.hpp"
#include "fpga/operating_point.hpp"

namespace trng::fpga {
namespace {

TEST(EnvironmentalModel, NominalIsUnity) {
  EnvironmentalModel env;
  EXPECT_DOUBLE_EQ(env.delay_multiplier(OperatingPoint::nominal()), 1.0);
  EXPECT_DOUBLE_EQ(env.sigma_multiplier(OperatingPoint::nominal()), 1.0);
}

TEST(EnvironmentalModel, HotSlowColdFast) {
  EnvironmentalModel env;
  const double hot = env.delay_multiplier(OperatingPoint::hot_low_voltage());
  const double cold =
      env.delay_multiplier(OperatingPoint::cold_high_voltage());
  EXPECT_GT(hot, 1.0);   // hot + undervolted: slower
  EXPECT_LT(cold, 1.0);  // cold + overvolted: faster
  // Envelope within ~+-15% for the commercial corners.
  EXPECT_LT(hot, 1.15);
  EXPECT_GT(cold, 0.85);
}

TEST(EnvironmentalModel, SigmaGrowsWithTemperature) {
  EnvironmentalModel env;
  EXPECT_GT(env.sigma_multiplier({85.0, 1.2}), 1.0);
  EXPECT_LT(env.sigma_multiplier({0.0, 1.2}), 1.0);
  // sqrt law: 85 C -> sqrt(358.15/298.15) ~ 1.096.
  EXPECT_NEAR(env.sigma_multiplier({85.0, 1.2}), 1.096, 0.002);
}

TEST(EnvironmentalModel, RejectsNonphysicalPoints) {
  EnvironmentalModel env;
  EXPECT_THROW(env.delay_multiplier({25.0, 5.0}), std::domain_error);
  EXPECT_THROW(env.sigma_multiplier({-300.0, 1.2}), std::domain_error);
}

TEST(FabricAt, ScalesElaboratedTiming) {
  Fabric nominal(DeviceGeometry{}, 42);
  const Fabric hot = nominal.at(OperatingPoint::hot_low_voltage());
  const auto fp = TrngFloorplan::canonical(nominal.geometry(), 3, 36);
  const auto e_nom = nominal.elaborate(fp);
  const auto e_hot = hot.elaborate(fp);

  const double expected = nominal.spec().environment.delay_multiplier(
      OperatingPoint::hot_low_voltage());
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_NEAR(e_hot.ro_stage_delay[s] / e_nom.ro_stage_delay[s], expected,
                1e-12);
  }
  EXPECT_NEAR(e_hot.lines[0].total_delay() / e_nom.lines[0].total_delay(),
              expected, 1e-12);
  EXPECT_GT(e_hot.stage_white_sigma_ps, e_nom.stage_white_sigma_ps);
}

TEST(FabricAt, RatioOfLineToLutDelayIsEnvironmentInvariant) {
  // Both the oscillator and the TDC slow down together, so the critical
  // m > d0/t_step margin survives environmental shifts — the reason the
  // paper's m = 36 safety margin works across conditions.
  Fabric nominal(DeviceGeometry{}, 7);
  const auto fp = TrngFloorplan::canonical(nominal.geometry(), 3, 36);
  const auto e_nom = nominal.elaborate(fp);
  const auto e_hot =
      nominal.at(OperatingPoint::hot_low_voltage()).elaborate(fp);
  const double ratio_nom =
      e_nom.lines[0].total_delay() / e_nom.ro_stage_delay[0];
  const double ratio_hot =
      e_hot.lines[0].total_delay() / e_hot.ro_stage_delay[0];
  EXPECT_NEAR(ratio_nom, ratio_hot, 1e-9);
}

TEST(FabricAt, DoesNotMutateOriginal) {
  Fabric nominal(DeviceGeometry{}, 1);
  const auto fp = TrngFloorplan::canonical(nominal.geometry(), 3, 36);
  const auto before = nominal.elaborate(fp);
  (void)nominal.at(OperatingPoint::hot_low_voltage());
  const auto after = nominal.elaborate(fp);
  EXPECT_EQ(after.ro_stage_delay, before.ro_stage_delay);
  EXPECT_EQ(after.lines[0].cumulative_delay, before.lines[0].cumulative_delay);
  EXPECT_DOUBLE_EQ(after.stage_white_sigma_ps, before.stage_white_sigma_ps);
}

}  // namespace
}  // namespace trng::fpga
