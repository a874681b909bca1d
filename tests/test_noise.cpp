// Unit tests for the noise-source models.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "server/sha256.hpp"
#include "sim/noise.hpp"

namespace trng::sim {
namespace {

TEST(NoiseConfig, WhiteOnlyDisablesEverythingElse) {
  const NoiseConfig c = NoiseConfig::white_only();
  EXPECT_EQ(c.flicker_sigma_ps, 0.0);
  EXPECT_EQ(c.supply_amp_rel, 0.0);
  EXPECT_EQ(c.supply_walk_rel_per_step, 0.0);
  EXPECT_EQ(c.white_sigma_scale, 1.0);
}

TEST(SupplyNoise, WhiteOnlyGivesUnityMultiplier) {
  SupplyNoise s(NoiseConfig::white_only(), 1);
  for (double t = 0.0; t < 5.0e6; t += 1.3e5) {
    EXPECT_DOUBLE_EQ(s.multiplier_at(t), 1.0);
  }
}

TEST(SupplyNoise, DeterministicPerSeed) {
  NoiseConfig c;
  SupplyNoise a(c, 42), b(c, 42);
  for (double t = 0.0; t < 1.0e7; t += 9.7e4) {
    EXPECT_DOUBLE_EQ(a.multiplier_at(t), b.multiplier_at(t));
  }
}

TEST(SupplyNoise, ToneAmplitudeBounded) {
  NoiseConfig c;
  c.supply_walk_rel_per_step = 0.0;  // isolate the tone
  c.supply_amp_rel = 1.0e-3;
  SupplyNoise s(c, 7);
  double lo = 10.0, hi = -10.0;
  for (double t = 0.0; t < 3.0e6; t += 1.0e3) {
    const double m = s.multiplier_at(t);
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  EXPECT_GE(lo, 1.0 - 1.0e-3 - 1e-12);
  EXPECT_LE(hi, 1.0 + 1.0e-3 + 1e-12);
  EXPECT_GT(hi - lo, 1.0e-3);  // the tone actually swings
}

TEST(SupplyNoise, ToneHasConfiguredPeriod) {
  NoiseConfig c;
  c.supply_walk_rel_per_step = 0.0;
  c.supply_amp_rel = 1.0e-3;
  c.supply_freq_hz = 1.0e6;  // period 1 us = 1e6 ps
  SupplyNoise s(c, 3);
  // Multiplier at t and t + period must agree.
  for (double t = 0.0; t < 2.0e6; t += 2.43e5) {
    EXPECT_NEAR(s.multiplier_at(t), s.multiplier_at(t + 1.0e6), 1e-9);
  }
}

TEST(SupplyNoise, RandomWalkSpreadsOverTime) {
  NoiseConfig c;
  c.supply_amp_rel = 0.0;  // isolate the walk
  c.supply_walk_rel_per_step = 1.0e-4;
  common::RunningStats early, late;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SupplyNoise s(c, seed);
    early.add(s.multiplier_at(2.0e6));   // 2 steps in
    late.add(s.multiplier_at(200.0e6));  // 200 steps in
  }
  EXPECT_NEAR(early.mean(), 1.0, 1e-4);
  EXPECT_NEAR(late.mean(), 1.0, 2e-4);
  // Walk variance grows linearly with steps: sigma ratio ~ 10.
  EXPECT_GT(late.stddev(), 5.0 * early.stddev());
}

NoiseConfig walk_only() {
  NoiseConfig c;
  c.supply_amp_rel = 0.0;
  c.supply_walk_rel_per_step = 1.0e-4;
  return c;
}

TEST(SupplyNoise, WalkIsContinuousAcrossStepBoundaries) {
  // Piecewise linear between the whole-us step values: approaching a
  // boundary from either side gives the same value, and inside a step the
  // walk moves (a staircase would hold the step's end value).
  SupplyNoise s(walk_only(), 9);
  for (int k = 1; k <= 20; ++k) {
    const double boundary = 1.0e6 * k;
    const double before = s.multiplier_at(boundary - 1.0);
    const double at = s.multiplier_at(boundary);
    // One ps is 1e-6 of a step: the walk moves by at most
    // 1e-6 * kPolarGaussianBound * sigma across it.
    EXPECT_NEAR(before, at, 1.0e-6 * 12.01 * 1.0e-4 + 1e-15) << "step " << k;
    if (k >= 2) {
      const double mid = s.multiplier_at(boundary + 499999.5);
      const double end = s.multiplier_at(boundary + 1.0e6 - 1.0);
      EXPECT_NE(at, mid) << "step " << k;
      EXPECT_NE(mid, end) << "step " << k;
      // Linear: the midpoint is the mean of the ends.
      EXPECT_NEAR(mid, 0.5 * (at + end), 1e-15) << "step " << k;
    }
  }
}

TEST(SupplyNoise, WalkDoesNotDependOnQueryOrder) {
  // Two oscillators sharing one supply query it out of order: one leads
  // across a step boundary while the other lags behind it. The lagging
  // query must see the value an in-order query sees at the same instant.
  SupplyNoise in_order(walk_only(), 31), lead_lag(walk_only(), 31);
  for (double t = 2.0e5; t < 8.0e6; t += 3.7e5) {
    const double lead = lead_lag.multiplier_at(t + 1.5e6);
    const double lag = lead_lag.multiplier_at(t);
    EXPECT_EQ(in_order.multiplier_at(t), lag) << "t " << t;
    EXPECT_EQ(in_order.multiplier_at(t + 1.5e6), lead) << "t " << t;
  }
}

TEST(SupplyNoise, QueriesOlderThanTheRetainedStepsThrow) {
  SupplyNoise s(walk_only(), 4);
  s.multiplier_at(10.5e6);                     // step 10
  EXPECT_NO_THROW(s.multiplier_at(8.0e6));     // step 8: retained
  EXPECT_THROW(s.multiplier_at(7.9e6), std::logic_error);  // step 7
  // Without a walk there is nothing to retain.
  NoiseConfig no_walk;
  no_walk.supply_walk_rel_per_step = 0.0;
  SupplyNoise s2(no_walk, 4);
  s2.multiplier_at(10.5e6);
  EXPECT_NO_THROW(s2.multiplier_at(0.0));
}

TEST(ToneSin, MatchesTheRecordedSweep) {
  // tone_sin must stay bit-for-bit what it was when it rounded with
  // std::nearbyint: the digest covers a sweep across its domain, the
  // points nearest the rounding ties (k + 1/2) pi and their neighbours,
  // and small arguments.
  std::vector<double> xs;
  for (int i = 0; i < 65536; ++i) {
    xs.push_back(-1.0e8 + 2.0e8 * (i / 65536.0) + 0.7071067811865476 * i);
  }
  constexpr double kPi = 3.14159265358979323846;
  for (int k = -4096; k < 4096; ++k) {
    const double x = (k + 0.5) * kPi;
    xs.push_back(x);
    xs.push_back(std::nextafter(x, -HUGE_VAL));
    xs.push_back(std::nextafter(x, HUGE_VAL));
  }
  for (int i = -4096; i < 4096; ++i) xs.push_back(i * 1.0e-3);
  std::vector<std::uint8_t> bytes;
  for (const double x : xs) {
    const double y = detail::tone_sin(x);
    std::uint64_t u = 0;
    std::memcpy(&u, &y, sizeof u);
    for (int b = 0; b < 8; ++b) bytes.push_back(static_cast<std::uint8_t>(u >> (8 * b)));
  }
  const auto digest = server::Sha256::digest(bytes.data(), bytes.size());
  std::string hex;
  for (const std::uint8_t b : digest) {
    char buf[3];
    std::snprintf(buf, sizeof buf, "%02x", b);
    hex += buf;
  }
  EXPECT_EQ(hex,
            "a94e22908d060bf612fd10c4f26908c6f8cf49643501e561a79a00c4eec9dd5f");
  // A few values spelled out.
  EXPECT_EQ(detail::tone_sin(0.5), 0x1.eaee8744b048fp-2);
  EXPECT_EQ(detail::tone_sin(3.0), 0x1.210386db6d55bp-3);
  EXPECT_EQ(detail::tone_sin(-2.5), -0x1.326af0dcfb916p-1);
  EXPECT_EQ(detail::tone_sin(12345.678), -0x1.687d58908906ep-1);
  EXPECT_EQ(detail::tone_sin(9.9e7), 0x1.7db66ce7a022bp-1);
}

TEST(SupplyNoise, FlickerDefaultsKeepShortWindowsWhiteDominated) {
  // The calibration contract from Section 5.1: at 20 ns accumulation the
  // flicker contribution must stay well below the white component
  // (sigma_white_acc ~ 12.9 ps), while at ~1 us it becomes comparable.
  const NoiseConfig c;
  const double traversals_20ns = 20000.0 / 480.0;
  const double flicker_20ns = c.flicker_sigma_ps * traversals_20ns;
  const double white_20ns = 2.0 * std::sqrt(traversals_20ns);
  EXPECT_LT(flicker_20ns, 0.25 * white_20ns);

  const double traversals_1us = 1.0e6 / 480.0;
  const double flicker_1us = c.flicker_sigma_ps * traversals_1us;
  const double white_1us = 2.0 * std::sqrt(traversals_1us);
  EXPECT_GT(flicker_1us, 0.8 * white_1us);
}

}  // namespace
}  // namespace trng::sim
