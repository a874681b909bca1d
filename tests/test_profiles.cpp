// Unit tests for the cross-platform fabric profiles (future-work support).
#include <gtest/gtest.h>

#include "core/trng.hpp"
#include "fpga/profiles.hpp"
#include "model/platform_measurement.hpp"

namespace trng::fpga {
namespace {

TEST(Profiles, BuiltinsAreDistinct) {
  const auto profiles = builtin_profiles();
  ASSERT_EQ(profiles.size(), 3u);
  EXPECT_EQ(profiles[0].name, "Spartan-6 (45nm)");
  EXPECT_NE(profiles[1].spec.lut.nominal_delay_ps,
            profiles[0].spec.lut.nominal_delay_ps);
  EXPECT_NE(profiles[2].spec.carry4.nominal_tap_delay_ps,
            profiles[0].spec.carry4.nominal_tap_delay_ps);
}

TEST(Profiles, Spartan6MatchesLibraryDefaults) {
  const auto p = spartan6_profile();
  EXPECT_DOUBLE_EQ(p.spec.lut.nominal_delay_ps, 480.0);
  EXPECT_DOUBLE_EQ(p.spec.lut.thermal_sigma_ps, 2.0);
  EXPECT_EQ(p.geometry.rows_per_clock_region(), 16);
}

TEST(Profiles, Artix7IsFasterAndFiner) {
  const auto a = artix7_profile();
  const auto s = spartan6_profile();
  EXPECT_LT(a.spec.lut.nominal_delay_ps, s.spec.lut.nominal_delay_ps);
  EXPECT_LT(a.spec.carry4.nominal_tap_delay_ps,
            s.spec.carry4.nominal_tap_delay_ps);
  EXPECT_EQ(a.geometry.rows_per_clock_region(), 50);
}

TEST(Profiles, MeasurementFlowWorksOnEveryPlatform) {
  for (const auto& profile : builtin_profiles()) {
    const Fabric fabric = profile.make_fabric(11);
    model::PlatformMeasurement pm(fabric, 3);
    const double d0 = pm.measure_lut_delay();
    EXPECT_NEAR(d0, profile.spec.lut.nominal_delay_ps,
                profile.spec.lut.nominal_delay_ps * 0.1)
        << profile.name;
  }
}

TEST(Profiles, TrngRunsOnEveryPlatform) {
  for (const auto& profile : builtin_profiles()) {
    const Fabric fabric = profile.make_fabric(21);
    // m must cover d0/t_step on each platform: Artix-7 needs ~39 taps
    // (350/9) -> use 44; Cyclone needs ~21 -> 36 is ample.
    core::DesignParams params;
    params.m = 44;
    core::CarryChainTrng trng(fabric, params, 5);
    (void)trng.generate(trng::common::Bits{3000});
    EXPECT_EQ(trng.diagnostics().missed_edges, 0u) << profile.name;
  }
}

TEST(Profiles, FinerTdcGivesLargerImprovementFactor) {
  // Artix-7's finer taps must beat Spartan-6's Eq. 8 factor; Cyclone's
  // coarser taps must trail it.
  auto factor = [](const PlatformProfile& p) {
    const double t_step =
        (4.0 * p.spec.carry4.nominal_tap_delay_ps +
         p.spec.carry4.interslice_extra_ps) / 4.0;
    const double r = p.spec.lut.nominal_delay_ps / t_step;
    return r * r;
  };
  const double f_s6 = factor(spartan6_profile());
  const double f_a7 = factor(artix7_profile());
  const double f_c4 = factor(cyclone4_profile());
  EXPECT_NEAR(f_s6, 797.0, 5.0);
  EXPECT_GT(f_a7, f_s6);
  EXPECT_LT(f_c4, f_s6);
}

}  // namespace
}  // namespace trng::fpga
