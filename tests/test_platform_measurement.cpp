// Tests for the Section 5.1 measurement procedures run against the
// simulated fabric: they must recover the die's true parameters.
#include <gtest/gtest.h>

#include "model/platform_measurement.hpp"

namespace trng::model {
namespace {

TEST(PlatformMeasurement, LutDelayMatchesPaper) {
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 42);
  PlatformMeasurement pm(fabric, 7);
  const Picoseconds d0 = pm.measure_lut_delay();
  EXPECT_NEAR(d0, 480.0, 480.0 * 0.08);  // process variation allows ~8%
}

TEST(PlatformMeasurement, LutDelayOnIdealFabricIsExact) {
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 1, fpga::ideal_fabric_spec());
  PlatformMeasurement pm(fabric, 3);
  EXPECT_NEAR(pm.measure_lut_delay(), 480.0, 1.0);
}

TEST(PlatformMeasurement, TStepMatchesPaper) {
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 42);
  PlatformMeasurement pm(fabric, 7);
  const Picoseconds t_step = pm.measure_t_step();
  EXPECT_NEAR(t_step, 17.0, 1.5);
}

TEST(PlatformMeasurement, TStepOnIdealFabricIsExact) {
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 1, fpga::ideal_fabric_spec());
  PlatformMeasurement pm(fabric, 3);
  EXPECT_NEAR(pm.measure_t_step(), 17.0, 0.4);
}

TEST(PlatformMeasurement, JitterSigmaMatchesPaper) {
  // The differential method must recover sigma_LUT ~ 2 ps even though the
  // die carries supply noise and flicker (that is the point of the method).
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 42);
  PlatformMeasurement pm(fabric, 7);
  const Picoseconds sigma = pm.measure_jitter_sigma(1000, 20000.0);
  EXPECT_NEAR(sigma, 2.0, 0.45);
}

TEST(PlatformMeasurement, JitterSigmaScalesWithTrueSigma) {
  fpga::FabricSpec spec;
  spec.lut.thermal_sigma_ps = 4.0;  // a die with double the thermal noise
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 5, spec);
  PlatformMeasurement pm(fabric, 11);
  EXPECT_NEAR(pm.measure_jitter_sigma(800, 20000.0), 4.0, 0.9);
}

TEST(PlatformMeasurement, LongWindowsOverestimateJitter) {
  // The paper's warning: at ~1 us accumulation low-frequency (flicker)
  // noise dominates and a naive measurement overestimates sigma_LUT.
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 42);
  PlatformMeasurement pm(fabric, 7);
  const Picoseconds short_window = pm.measure_jitter_sigma(400, 20000.0);
  const Picoseconds long_window = pm.measure_jitter_sigma(400, 1.0e6);
  EXPECT_GT(long_window, 1.15 * short_window);
  EXPECT_GT(long_window, 2.3);
}

TEST(PlatformMeasurement, WindowsOfSeveralMicrosecondsAreMeasured) {
  // Both oscillators share one supply, whose walk answers only queries
  // near its newest one; a window several walk steps long must still run,
  // and the flicker keeps inflating the estimate past 1 us.
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 42);
  PlatformMeasurement pm(fabric, 7);
  const Picoseconds one_us = pm.measure_jitter_sigma(100, 1.0e6);
  Picoseconds four_us = 0.0;
  ASSERT_NO_THROW(four_us = pm.measure_jitter_sigma(100, 4.0e6));
  EXPECT_GT(four_us, one_us);
}

TEST(PlatformMeasurement, MeasureAllRoundTripsThroughModel) {
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 42);
  PlatformMeasurement pm(fabric, 7);
  const core::PlatformParams p = pm.measure_all();
  EXPECT_NO_THROW(p.validate());
  EXPECT_NEAR(p.d0_lut_ps, 480.0, 40.0);
  EXPECT_NEAR(p.t_step_ps, 17.0, 1.5);
  EXPECT_NEAR(p.sigma_lut_ps, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(p.f_clk_hz, 100.0e6);
}

TEST(PlatformMeasurement, RejectsBadArguments) {
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 1);
  PlatformMeasurement pm(fabric, 1);
  EXPECT_THROW(pm.measure_lut_delay(0), std::invalid_argument);
  EXPECT_THROW(pm.measure_lut_delay(3, -1.0), std::invalid_argument);
  EXPECT_THROW(pm.measure_t_step(1), std::invalid_argument);
  EXPECT_THROW(pm.measure_jitter_sigma(5), std::invalid_argument);
}

TEST(PlatformMeasurement, TStepRejectsTooShortChain) {
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 1);
  PlatformMeasurement pm(fabric, 1);
  // 8 CARRY4 = 32 taps ~ 544 ps < 1.5 half-periods of the 1-LUT oscillator.
  EXPECT_THROW(pm.measure_t_step(8), std::invalid_argument);
}

TEST(PlatformMeasurement, DifferentDiesGiveSlightlyDifferentD0) {
  fpga::Fabric fb(fpga::DeviceGeometry{}, 2);
  PlatformMeasurement b(fb, 3);
  fpga::Fabric fa(fpga::DeviceGeometry{}, 1);
  PlatformMeasurement a2(fa, 3);
  const double da = a2.measure_lut_delay();
  const double db = b.measure_lut_delay();
  EXPECT_NE(da, db);
  EXPECT_NEAR(da, db, 480.0 * 0.2);
}

}  // namespace
}  // namespace trng::model
