// Equivalence of the ring-oscillator advance and the two-draw oracle.
//
// RingOscillator draws one Gaussian per transition, from the delay
// jitter's one-step conditional law (DelayJitter, the Kalman innovations
// form of white plus AR(1) flicker noise), and tracks the supply tone as a
// phasor rotated by a polynomial between tone_sin anchors. The oracle in
// tests/ro_oracle.hpp draws a white and a flicker Gaussian per transition
// and calls SupplyNoise::multiplier_at at every launch. The two consume
// different generator values, so they agree in law, not bit for bit:
//
//   * with the jitter off, only the tone evaluation differs, and every
//     toggle must agree within a bound derived below from tone_sin's error
//     and the rounding of the times;
//   * with the jitter on, the mean and variance of accumulated edge times
//     and of sums of consecutive delays must agree within kZ = 5 standard
//     errors (false-alarm rate under 1e-6 per comparison). Every sample
//     comes from its own oscillator and supply, so samples are
//     independent.
//
// The gain recursion itself is checked against its closed-form fixed
// point.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ro_oracle.hpp"
#include "sim/noise.hpp"
#include "sim/ring_oscillator.hpp"

namespace trng::sim {
namespace {

constexpr double kZ = 5.0;
const std::vector<Picoseconds> kDelays = {480.0, 505.0, 466.0};
constexpr Picoseconds kMaxDelay = 505.0;
constexpr Picoseconds kMeanDelay = (480.0 + 505.0 + 466.0) / 3.0;
constexpr Picoseconds kWhiteSigma = 2.0;
/// Long enough that the oscillator never prunes a toggle under test.
constexpr Picoseconds kKeepAll = 1.0e15;

/// tone_sin's documented absolute error bound.
constexpr double kToneSinError = 1.0e-7;

NoiseConfig attack_tone() {
  // examples/injection_attack.cpp's supply tone.
  NoiseConfig c;
  c.supply_amp_rel = 1.5e-2;
  c.supply_freq_hz = 33.43e6;
  return c;
}

NoiseConfig jitter_off(NoiseConfig c) {
  c.white_sigma_scale = 0.0;
  c.flicker_sigma_ps = 0.0;
  return c;
}

/// Time of transition j since the last reset: transition j toggles stage
/// j mod n, for the (j / n)-th time.
template <typename Osc>
Picoseconds transition_time(const Osc& osc, std::size_t j) {
  const auto n = static_cast<std::size_t>(osc.stages());
  return osc.toggle_history(static_cast<int>(j % n))[j / n];
}

template <typename Osc>
std::size_t transitions_since_reset(const Osc& osc) {
  std::size_t total = 0;
  for (int s = 0; s < osc.stages(); ++s) total += osc.toggle_history(s).size();
  return total;
}

// ---------------------------------------------------------------------------
// Pathwise, jitter off.

/// Largest difference between the two multipliers evaluated at one launch
/// time. The oracle's tone is tone_sin (error < kToneSinError). The
/// oscillator's is an anchored (tone_sin(x), tone_sin(x + pi/2)) pair,
/// rotated: rotation preserves the anchor's error vector, whose length is
/// below sqrt(2) kToneSinError. Both phases round to ulp(theta) at the
/// anchor and the launch. The rotations follow omega * delay, while the
/// launch times round to ulp(t) as they accumulate: up to 64 steps between
/// anchors drift the phase by 64 omega ulp(t) and add a few 2^-53 each.
/// The walk is the same expression on both sides; the sums round twice.
double multiplier_error(const NoiseConfig& noise, Picoseconds t_max) {
  const double omega = 2.0 * std::numbers::pi * noise.supply_freq_hz * 1.0e-12;
  const double theta_max = omega * t_max + 2.5 * std::numbers::pi;
  const double ulp_theta = std::nextafter(theta_max, HUGE_VAL) - theta_max;
  const double ulp_t = std::nextafter(t_max, HUGE_VAL) - t_max;
  const double eps = std::numeric_limits<double>::epsilon();
  return noise.supply_amp_rel *
             ((1.0 + std::sqrt(2.0)) * kToneSinError + 4.0 * ulp_theta +
              64.0 * (omega * ulp_t + 8.0 * eps)) +
         4.0 * eps;
}

/// Lipschitz constant of a delay in its launch time: the tone's slope plus
/// the walk's steepest possible slope (a step is at most
/// kPolarGaussianBound sigmas over 1 us).
double delay_lipschitz(const NoiseConfig& noise) {
  const double omega = 2.0 * std::numbers::pi * noise.supply_freq_hz * 1.0e-12;
  return kMaxDelay * (noise.supply_amp_rel * omega +
                      common::kPolarGaussianBound *
                          noise.supply_walk_rel_per_step / 1.0e6);
}

/// Checks every toggle since the last reset. Both sides launch the first
/// transition with the same multiplier_at(t0) and jitter 0, so the first
/// toggles are equal; each later one may drift by the multiplier error
/// times the delay, the rounding of pt += delay on both sides, and the
/// earlier drift amplified through the multiplier's slope.
void expect_same_toggles(const RingOscillator& osc,
                         const test::ReferenceRingOscillator& ref,
                         const NoiseConfig& noise, Picoseconds t_max,
                         const std::string& where) {
  const std::size_t n = transitions_since_reset(osc);
  ASSERT_EQ(n, transitions_since_reset(ref)) << where;
  const double e_mult = multiplier_error(noise, t_max);
  const double lip = delay_lipschitz(noise);
  const double ulp_t = std::nextafter(t_max, HUGE_VAL) - t_max;
  double tol = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const Picoseconds a = transition_time(osc, j);
    const Picoseconds b = transition_time(ref, j);
    ASSERT_LE(std::fabs(a - b), tol)
        << where << ", transition " << j << ": " << a << " vs " << b;
    tol = tol * (1.0 + lip) + kMaxDelay * e_mult + 2.0 * ulp_t;
  }
}

struct PathCase {
  const char* name;
  NoiseConfig noise;
  Picoseconds t_acc;  ///< restart interval; 0 = free running
  Picoseconds span;   ///< simulated time covered
};

void PrintTo(const PathCase& pc, std::ostream* os) { *os << pc.name; }

class PathwiseJitterOff : public ::testing::TestWithParam<PathCase> {};

TEST_P(PathwiseJitterOff, EveryToggleMatchesTheOracle) {
  const PathCase& pc = GetParam();
  const NoiseConfig noise = jitter_off(pc.noise);
  // Same-seeded supplies: the same tone phase and the same walk.
  SupplyNoise supply_osc(noise, 77), supply_ref(noise, 77);
  RingOscillator osc(kDelays, kWhiteSigma, noise, &supply_osc, 5, kKeepAll);
  test::ReferenceRingOscillator ref(kDelays, kWhiteSigma, noise, &supply_ref,
                                    5);
  if (pc.t_acc == 0.0) {
    // Free running, advanced in steps that do not divide the period.
    osc.reset(0.0);
    ref.reset(0.0);
    for (Picoseconds t = 2777.0; t < pc.span; t += 2777.0) {
      osc.advance_to(t);
      ref.advance_to(t);
    }
    expect_same_toggles(osc, ref, noise, pc.span, "free running");
    return;
  }
  // Restart mode; the restarts straddle walk steps at every whole us.
  int rep = 0;
  for (Picoseconds t0 = 0.0; t0 + pc.t_acc < pc.span;
       t0 += pc.t_acc + 1234.5, ++rep) {
    osc.reset(t0);
    ref.reset(t0);
    osc.advance_to(t0 + pc.t_acc);
    ref.advance_to(t0 + pc.t_acc);
    expect_same_toggles(osc, ref, noise, pc.span,
                        "restart " + std::to_string(rep));
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RoEquivalence, PathwiseJitterOff,
    ::testing::Values(
        PathCase{"DefaultSupplyRestart10ns", NoiseConfig{}, 1.0e4, 6.0e6},
        PathCase{"DefaultSupplyRestart200ns", NoiseConfig{}, 2.0e5, 6.0e6},
        PathCase{"DefaultSupplyFreeRunning", NoiseConfig{}, 0.0, 4.0e6},
        PathCase{"AttackToneRestart10ns", attack_tone(), 1.0e4, 3.0e6},
        PathCase{"AttackToneRestart200ns", attack_tone(), 2.0e5, 3.0e6},
        // The bound compounds through the tone's steep slope; 1 us keeps
        // it informative.
        PathCase{"AttackToneFreeRunning", attack_tone(), 0.0, 1.0e6}));

// ---------------------------------------------------------------------------
// In law, jitter on.

/// Samples of one statistic, compared by mean and by variance.
struct Samples {
  std::vector<double> x;

  double mean() const {
    double s = 0.0;
    for (double v : x) s += v;
    return s / static_cast<double>(x.size());
  }
  /// Central moment of order k.
  double moment(int k) const {
    const double m = mean();
    double s = 0.0;
    for (double v : x) s += std::pow(v - m, k);
    return s / static_cast<double>(x.size());
  }
};

::testing::AssertionResult same_mean(const Samples& a, const Samples& b) {
  const double na = static_cast<double>(a.x.size());
  const double nb = static_cast<double>(b.x.size());
  const double se = std::sqrt(a.moment(2) / na + b.moment(2) / nb);
  const double diff = std::fabs(a.mean() - b.mean());
  if (diff <= kZ * se) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "means " << a.mean() << " vs "
                                       << b.mean() << ": |diff| " << diff
                                       << " > " << kZ << " * " << se;
}

/// The sample variance's standard error is sqrt((m4 - m2^2) / n), from the
/// fourth moment, so it needs no normality assumption.
::testing::AssertionResult same_variance(const Samples& a, const Samples& b) {
  const double na = static_cast<double>(a.x.size());
  const double nb = static_cast<double>(b.x.size());
  const double va = a.moment(2);
  const double vb = b.moment(2);
  const double se = std::sqrt((a.moment(4) - va * va) / na +
                              (b.moment(4) - vb * vb) / nb);
  const double diff = std::fabs(va - vb);
  if (diff <= kZ * se) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "variances " << va << " vs " << vb
                                       << ": |diff| " << diff << " > " << kZ
                                       << " * " << se;
}

/// The accumulated edge time: after a warm-up run and a restart at t1
/// (so the flicker state carries over), the time from t1 to the
/// transition nearest t_acc.
template <typename Osc>
double accumulated_edge_time(Osc& osc, Picoseconds t_acc) {
  constexpr Picoseconds kMargin = 5000.0;
  const auto index = static_cast<std::size_t>(t_acc / kMeanDelay) - 1;
  osc.reset(0.0);
  osc.advance_to(t_acc + kMargin);
  const Picoseconds t1 = t_acc + 2.0 * kMargin;
  osc.reset(t1);
  osc.advance_to(t1 + t_acc + kMargin);
  if (transitions_since_reset(osc) <= index) {
    ADD_FAILURE() << "edge " << index << " not reached";
    return 0.0;
  }
  return transition_time(osc, index) - t1;
}

class AccumulatedEdgeTime : public ::testing::TestWithParam<double> {};

TEST_P(AccumulatedEdgeTime, MeanAndVarianceMatchTheOracle) {
  const Picoseconds t_acc = GetParam();
  const NoiseConfig noise;  // white, flicker, supply tone and walk
  constexpr int kSamples = 2000;
  Samples a, b;
  for (std::uint64_t i = 0; i < kSamples; ++i) {
    SupplyNoise supply_osc(noise, 1000 + i), supply_ref(noise, 500000 + i);
    RingOscillator osc(kDelays, kWhiteSigma, noise, &supply_osc, 2000 + i,
                       kKeepAll);
    test::ReferenceRingOscillator ref(kDelays, kWhiteSigma, noise,
                                      &supply_ref, 700000 + i);
    a.x.push_back(accumulated_edge_time(osc, t_acc));
    b.x.push_back(accumulated_edge_time(ref, t_acc));
  }
  EXPECT_TRUE(same_mean(a, b)) << "t_acc " << t_acc;
  EXPECT_TRUE(same_variance(a, b)) << "t_acc " << t_acc;
}

INSTANTIATE_TEST_SUITE_P(RoEquivalence, AccumulatedEdgeTime,
                         ::testing::Values(1.0e4, 2.0e4, 2.0e5, 1.0e6));

/// Sums of L consecutive delays right after a restart, under a flicker
/// strong and slow enough (sigma_f = 1 ps, rho = 0.999) that the AR(1)
/// correlation dominates sums of 100 and 1000 delays. No supply: the
/// delays are the jitter alone around the static stage delays. The
/// difference of two consecutive delays removes the slowly varying flicker
/// level and leaves the per-transition innovations, whose variance the
/// sums alone cannot resolve when the flicker level dominates.
class ConsecutiveDelaySums : public ::testing::TestWithParam<double> {};

TEST_P(ConsecutiveDelaySums, VarianceMatchesTheOracleAtEveryLength) {
  const Picoseconds white_sigma = GetParam();
  NoiseConfig noise = NoiseConfig::white_only();
  noise.flicker_sigma_ps = 1.0;
  noise.flicker_corr = 0.999;
  constexpr int kSamples = 2000;
  constexpr std::size_t kLengths[] = {1, 10, 100, 1000};
  constexpr std::size_t kLongest = 1000;
  // [0..3]: sums over kLengths; [4]: the difference of two delays.
  Samples a[5], b[5];
  auto collect = [&](auto& osc, Samples* out) {
    // 300 warm-up transitions build the flicker state up; the restart
    // keeps it.
    osc.reset(0.0);
    osc.advance_to(300.0 * kMeanDelay);
    const Picoseconds t1 = 400.0 * kMeanDelay;
    osc.reset(t1);
    osc.advance_to(t1 + (kLongest + 100) * kMeanDelay);
    ASSERT_GT(transitions_since_reset(osc), kLongest);
    const Picoseconds first = transition_time(osc, 0);
    for (int l = 0; l < 4; ++l) {
      out[l].x.push_back(transition_time(osc, kLengths[l]) - first);
    }
    out[4].x.push_back(transition_time(osc, 2) - 2.0 * transition_time(osc, 1) +
                       first);
  };
  for (std::uint64_t i = 0; i < kSamples; ++i) {
    RingOscillator osc(kDelays, white_sigma, noise, nullptr, 3000 + i,
                       kKeepAll);
    test::ReferenceRingOscillator ref(kDelays, white_sigma, noise, nullptr,
                                      900000 + i);
    collect(osc, a);
    collect(ref, b);
    if (HasFatalFailure()) return;
  }
  for (int l = 0; l < 5; ++l) {
    const std::string what =
        l < 4 ? "L = " + std::to_string(kLengths[l]) : "delay difference";
    EXPECT_TRUE(same_mean(a[l], b[l])) << what;
    EXPECT_TRUE(same_variance(a[l], b[l])) << what;
  }
}

// 2 ps is the stage sigma used across the tests; at 0.1 ps the flicker
// innovations dominate, so S is well above sigma_w^2.
INSTANTIATE_TEST_SUITE_P(RoEquivalence, ConsecutiveDelaySums,
                         ::testing::Values(2.0, 0.1));

// ---------------------------------------------------------------------------
// The gain recursion.

TEST(DelayJitterGain, ConvergesToTheClosedFormFixedPoint) {
  struct Config {
    double white, corr, flicker;
  };
  const Config configs[] = {
      {2.0, 0.99998, 0.05}, {2.0, 0.999, 1.0}, {0.1, 0.999, 1.0},
      {0.5, 0.9, 0.3},      {0.0, 0.999, 1.0}};
  for (const Config& c : configs) {
    DelayJitter jitter(c.white, c.corr, c.flicker);
    for (int i = 0; i < 1000000 && !jitter.converged(); ++i) jitter.next(0.0);
    ASSERT_TRUE(jitter.converged()) << "white " << c.white;
    // The fixed point of P_pred = rho^2 P + c^2 with P = (1 - K) P_pred:
    // P_pred^2 + P_pred (w2 (1 - rho^2) - c2) - c2 w2 = 0.
    const double w2 = c.white * c.white;
    const double c2 = (1.0 - c.corr * c.corr) * c.flicker * c.flicker;
    const double b = w2 * (1.0 - c.corr * c.corr) - c2;
    const double pred = (-b + std::sqrt(b * b + 4.0 * c2 * w2)) / 2.0;
    const double s = pred + w2;
    const double k = pred / s;
    EXPECT_NEAR(jitter.innovation_var(), s, 1e-12 * s) << "white " << c.white;
    EXPECT_NEAR(jitter.kalman_gain(), k, 1e-10) << "white " << c.white;
    EXPECT_NEAR(jitter.posterior_var(), (1.0 - k) * pred, 1e-12 * s)
        << "white " << c.white;
  }
}

TEST(DelayJitterGain, WhiteOnlyHasNoGain) {
  DelayJitter jitter(2.0, 0.99998, 0.0);
  EXPECT_EQ(jitter.next(0.75), 1.5);  // sqrt(S) e with S = sigma_w^2
  EXPECT_EQ(jitter.kalman_gain(), 0.0);
  EXPECT_EQ(jitter.innovation_var(), 4.0);
  EXPECT_TRUE(jitter.converged());
  EXPECT_EQ(jitter.next(-1.25), -2.5);
}

TEST(DelayJitterGain, NoNoiseDrawsZero) {
  DelayJitter jitter(0.0, 0.99998, 0.0);
  EXPECT_EQ(jitter.next(1.7), 0.0);
  EXPECT_EQ(jitter.innovation_var(), 0.0);
  EXPECT_EQ(jitter.kalman_gain(), 0.0);
}

}  // namespace
}  // namespace trng::sim
