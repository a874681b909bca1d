// Unit tests for the event-based ring-oscillator simulation, including the
// jitter-accumulation law (Eq. 1) it must reproduce.
#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hpp"
#include "oracles.hpp"
#include "sim/ring_oscillator.hpp"

namespace trng::sim {
namespace {

/// A history window for tests that query further back than a capture
/// does: with it no toggle they read is skipped or pruned.
constexpr Picoseconds kLongWindow = 6000.0;

RingOscillator make_noiseless(
    std::vector<Picoseconds> delays,
    Picoseconds window = RingOscillator::kDefaultHistoryWindowPs) {
  return RingOscillator(std::move(delays), /*white_sigma_ps=*/0.0,
                        NoiseConfig::white_only(), nullptr, /*seed=*/1,
                        window);
}

TEST(RingOscillator, RejectsBadConstruction) {
  EXPECT_THROW(make_noiseless({}), std::invalid_argument);
  EXPECT_THROW(make_noiseless({480.0, -1.0}), std::invalid_argument);
  EXPECT_THROW(make_noiseless({480.0, 0.0}), std::invalid_argument);
}

TEST(RingOscillator, RejectsBadHistoryWindow) {
  // A negative window would prune toggles a capture still reads; a NaN one
  // would disable value_at's window check.
  EXPECT_THROW(make_noiseless({480.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(make_noiseless({480.0}, -100.0), std::invalid_argument);
  EXPECT_THROW(make_noiseless({480.0}, std::nan("")), std::invalid_argument);
  EXPECT_NO_THROW(make_noiseless({480.0}, 1.0));
}

TEST(RingOscillator, RequiresResetBeforeAdvance) {
  auto osc = make_noiseless({480.0});
  EXPECT_THROW(osc.advance_to(100.0), std::logic_error);
}

TEST(RingOscillator, NoiselessPeriodIsExact) {
  auto osc = make_noiseless({100.0, 150.0, 200.0});
  osc.reset(0.0);
  osc.advance_to(45000.0);  // 100 half-periods of 450 ps
  // One transition per stage traversal; mean traversal = 150 ps.
  EXPECT_EQ(osc.transition_count(), 45000ull / 150ull);
}

TEST(RingOscillator, NoiselessToggleTimesMatchStageDelays) {
  auto osc = make_noiseless({100.0, 150.0, 200.0}, kLongWindow);
  osc.reset(0.0);
  osc.advance_to(2000.0);
  // Stage 0 (NAND) falls at t=100; stage 1 at 250; stage 2 at 450;
  // NAND rises again at 550, ...
  const auto e0 = test::edges_in(osc, 0, 0.0, 700.0);
  ASSERT_GE(e0.size(), 2u);
  EXPECT_NEAR(e0[0], 100.0, 1e-9);
  EXPECT_NEAR(e0[1], 550.0, 1e-9);
  const auto e2 = test::edges_in(osc, 2, 0.0, 500.0);
  ASSERT_EQ(e2.size(), 1u);
  EXPECT_NEAR(e2[0], 450.0, 1e-9);
}

TEST(RingOscillator, ValueTracksToggles) {
  auto osc = make_noiseless({100.0, 150.0, 200.0}, kLongWindow);
  osc.reset(0.0);
  osc.advance_to(2000.0);
  EXPECT_TRUE(test::value_at(osc, 0, 50.0));    // before first fall
  EXPECT_FALSE(test::value_at(osc, 0, 150.0));  // after fall at 100
  EXPECT_TRUE(test::value_at(osc, 0, 600.0));   // after rise at 550
  EXPECT_TRUE(test::value_at(osc, 2, 100.0));
  EXPECT_FALSE(test::value_at(osc, 2, 460.0));
}

TEST(RingOscillator, ValueAtRejectsFutureAndBadStage) {
  auto osc = make_noiseless({480.0});
  osc.reset(0.0);
  osc.advance_to(1000.0);
  EXPECT_THROW(test::value_at(osc, 0, 2000.0), std::logic_error);
  EXPECT_THROW(test::value_at(osc, 1, 500.0), std::out_of_range);
  EXPECT_THROW(test::edges_in(osc, 1, 0.0, 10.0), std::out_of_range);
  EXPECT_THROW(test::edges_in(osc, 0, 0.0, 5000.0), std::logic_error);
}

TEST(RingOscillator, ResetRestoresPhase) {
  RingOscillator osc({480.0}, 0.0, NoiseConfig::white_only(), nullptr, 3);
  osc.reset(0.0);
  osc.advance_to(10000.0);
  const bool v1 = test::value_at(osc, 0, 10000.0);
  osc.reset(20000.0);
  osc.advance_to(30000.0);
  const bool v2 = test::value_at(osc, 0, 30000.0);
  EXPECT_EQ(v1, v2);  // same accumulation time from reset, no noise
}

TEST(RingOscillator, MeanStageDelayAndHalfPeriod) {
  auto osc = make_noiseless({100.0, 200.0, 300.0});
  EXPECT_DOUBLE_EQ(osc.nominal_half_period(), 600.0);
}

TEST(RingOscillator, HistoryWindowIsPruned) {
  auto osc = make_noiseless({480.0});
  osc.reset(0.0);
  osc.advance_to(1.0e6);
  // Values inside the retained window work; far past throws.
  EXPECT_NO_THROW(test::value_at(osc, 0, 1.0e6 - 1000.0));
  EXPECT_THROW(test::value_at(osc, 0, 100.0), std::logic_error);
}

/// Eq. 1: the std-dev of the edge position after accumulation time t_A is
/// sigma_LUT * sqrt(t_A / d0). This is the core physical claim the whole
/// paper rests on; verify the simulator reproduces it.
class JitterAccumulation : public ::testing::TestWithParam<double> {};

TEST_P(JitterAccumulation, MatchesSqrtLaw) {
  const double t_acc = GetParam();
  constexpr double kD0 = 480.0;
  constexpr double kSigma = 2.0;
  RingOscillator osc({kD0, kD0, kD0}, kSigma, NoiseConfig::white_only(),
                     nullptr, 12345, kLongWindow);
  // Measure the arrival time of the last edge before t_acc relative to its
  // noise-free position, over many restarts.
  common::RunningStats spread;
  constexpr int kReps = 400;
  double t0 = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    osc.reset(t0);
    osc.advance_to(t0 + t_acc + 3000.0);
    const auto edges = test::edges_in(osc, 0, t0, t0 + t_acc + 3000.0);
    // Pick the edge index closest to t_acc; its noise-free position is
    // deterministic, so the spread across reps is the accumulated jitter.
    std::size_t idx = 0;
    while (idx + 1 < edges.size() && edges[idx + 1] <= t0 + t_acc) ++idx;
    spread.add(edges[idx] - t0);
    t0 += t_acc + 10000.0;
  }
  const double expected = kSigma * std::sqrt(t_acc / kD0);
  EXPECT_NEAR(spread.stddev(), expected, 0.15 * expected)
      << "t_acc = " << t_acc;
}

INSTANTIATE_TEST_SUITE_P(Sweep, JitterAccumulation,
                         ::testing::Values(10000.0, 20000.0, 50000.0,
                                           100000.0));

TEST(RingOscillator, FlickerInflatesLongWindows) {
  // With flicker enabled the spread at 1 us must exceed the white-only
  // prediction noticeably (the paper's warning about measurement windows).
  NoiseConfig noisy;  // defaults include flicker
  RingOscillator osc({480.0, 480.0, 480.0}, 2.0, noisy, nullptr, 777,
                     kLongWindow);
  common::RunningStats spread;
  const double t_acc = 1.0e6;
  double t0 = 0.0;
  for (int rep = 0; rep < 120; ++rep) {
    osc.reset(t0);
    osc.advance_to(t0 + t_acc + 3000.0);
    const auto edges =
        test::edges_in(osc, 0, t0 + t_acc - 2000.0, t0 + t_acc);
    ASSERT_FALSE(edges.empty());
    spread.add(edges.back() - t0);
    t0 += t_acc + 10000.0;
  }
  const double white_only = 2.0 * std::sqrt(t_acc / 480.0);
  EXPECT_GT(spread.stddev(), 1.2 * white_only);
}

TEST(RingOscillator, SingleStageWorks) {
  auto osc = make_noiseless({480.0});
  osc.reset(0.0);
  osc.advance_to(480.0 * 10.5);
  EXPECT_EQ(osc.transition_count(), 10u);
}

}  // namespace
}  // namespace trng::sim
