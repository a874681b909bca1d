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
//
// RoSkip: an oscillator with the default history window replaces the
// transitions that land before the window with one aggregate step
// (DelayJitter::skip); one that keeps everything (kKeepAll) never does.
// The two agree in law at the toggles after the boundary, exactly with the
// jitter off, and bit for bit where the supply bound makes the step fall
// back.
#include <gtest/gtest.h>

#include <algorithm>
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
// The aggregate step.

/// White noise of kWhiteSigma plus a flicker whose gains converge within
/// about 2500 transitions (the default's take about 90000), with or
/// without the default supply tone and walk.
NoiseConfig skip_noise(bool supply) {
  NoiseConfig c;
  c.flicker_sigma_ps = 0.3;
  c.flicker_corr = 0.999;
  if (!supply) {
    c.supply_amp_rel = 0.0;
    c.supply_walk_rel_per_step = 0.0;
  }
  return c;
}

/// Transitions that bring the flicker gains of skip_noise to their fixed
/// point, the condition for the aggregate step.
constexpr Picoseconds kWarmUp = 3000.0 * kMeanDelay;

/// The toggles retained since the last reset, in transition order, and the
/// index (counted from that reset) of the first. `since_reset` counts every
/// transition since the reset, skipped ones included.
struct Retained {
  std::vector<Picoseconds> times;
  std::uint64_t first = 0;
};

Retained retained(const RingOscillator& osc, std::uint64_t since_reset) {
  Retained r;
  for (int s = 0; s < osc.stages(); ++s) {
    const auto& q = osc.toggle_history(s);
    r.times.insert(r.times.end(), q.begin(), q.end());
  }
  std::sort(r.times.begin(), r.times.end());
  r.first = since_reset - r.times.size();
  return r;
}

/// After a warm-up and a restart at t1, advances to t1 + t_acc + 500 as the
/// sampler does, and reports the transitions that land before the default
/// window's left edge c = t1 + t_acc - 1000 and the deviation of the first
/// toggle at or after c from its nominal time (toggle j nominally lands at
/// t1 + d_0 + ... + d_j).
struct Boundary {
  double before = 0.0;
  double deviation = 0.0;
};

Boundary boundary_sample(RingOscillator& osc, Picoseconds t_acc) {
  osc.reset(0.0);
  osc.advance_to(kWarmUp);
  const Picoseconds t1 = kWarmUp + 10000.0;
  const std::uint64_t c0 = osc.transition_count();
  osc.reset(t1);
  const Picoseconds t = t1 + t_acc + 500.0;
  osc.advance_to(t);
  const Picoseconds cutoff = t - RingOscillator::kDefaultHistoryWindowPs;
  const Retained r = retained(osc, osc.transition_count() - c0);
  // Every skipped toggle lies before the cutoff, so the first retained one
  // at or after it is the first there is.
  const auto it = std::lower_bound(r.times.begin(), r.times.end(), cutoff);
  Boundary b;
  if (it == r.times.end()) {
    ADD_FAILURE() << "no toggle retained after the boundary";
    return b;
  }
  const auto index =
      r.first + static_cast<std::uint64_t>(it - r.times.begin());
  Picoseconds nominal = 0.0;
  for (std::uint64_t j = 0; j <= index; ++j) nominal += kDelays[j % 3];
  b.before = static_cast<double>(index);
  b.deviation = (*it - t1) - nominal;
  return b;
}

/// Whether the skipping oscillator's retained toggles differ from those of
/// a same-seeded oscillator that keeps everything: they can only differ
/// through the aggregate step's draws (with the jitter on).
bool stepped(const RingOscillator& osc, const RingOscillator& keep_all) {
  for (int s = 0; s < osc.stages(); ++s) {
    const auto& a = osc.toggle_history(s);
    const auto& b = keep_all.toggle_history(s);
    if (a.size() > b.size() ||
        !std::equal(a.begin(), a.end(), b.end() - static_cast<std::ptrdiff_t>(a.size()))) {
      return true;
    }
  }
  return false;
}

struct SkipCase {
  const char* name;
  Picoseconds t_acc;
  bool supply;
  bool steps;  ///< the aggregate step applies (else the bound falls back)
};

void PrintTo(const SkipCase& sc, std::ostream* os) { *os << sc.name; }

class RoSkipBoundary : public ::testing::TestWithParam<SkipCase> {};

TEST_P(RoSkipBoundary, EdgeAfterTheSkipMatchesKeepAll) {
  const SkipCase& sc = GetParam();
  const NoiseConfig noise = skip_noise(sc.supply);
  constexpr int kSamples = 2000;
  constexpr int kTwins = 20;
  Samples before[2], deviation[2];
  int stepped_twins = 0;
  for (std::uint64_t i = 0; i < kSamples; ++i) {
    SupplyNoise supply_a(noise, 4000 + i), supply_b(noise, 600000 + i);
    RingOscillator skip(kDelays, kWhiteSigma, noise,
                        sc.supply ? &supply_a : nullptr, 8000 + i);
    RingOscillator keep(kDelays, kWhiteSigma, noise,
                        sc.supply ? &supply_b : nullptr, 800000 + i, kKeepAll);
    const Boundary a = boundary_sample(skip, sc.t_acc);
    const Boundary b = boundary_sample(keep, sc.t_acc);
    before[0].x.push_back(a.before);
    before[1].x.push_back(b.before);
    deviation[0].x.push_back(a.deviation);
    deviation[1].x.push_back(b.deviation);
    if (i < kTwins) {
      SupplyNoise supply_twin(noise, 4000 + i);
      RingOscillator twin(kDelays, kWhiteSigma, noise,
                          sc.supply ? &supply_twin : nullptr, 8000 + i,
                          kKeepAll);
      boundary_sample(twin, sc.t_acc);
      stepped_twins += stepped(skip, twin) ? 1 : 0;
    }
    if (HasFailure()) return;
  }
  // Near its tolerance (200 ns with the supply) the bound admits the step
  // for most flicker states, not all.
  if (sc.steps) {
    EXPECT_GT(stepped_twins, 0);
  } else {
    EXPECT_EQ(stepped_twins, 0);
  }
  EXPECT_TRUE(same_mean(before[0], before[1])) << "transitions before";
  EXPECT_TRUE(same_variance(before[0], before[1])) << "transitions before";
  EXPECT_TRUE(same_mean(deviation[0], deviation[1])) << "edge deviation";
  EXPECT_TRUE(same_variance(deviation[0], deviation[1])) << "edge deviation";
}

// With the default supply the bound admits 10 ns and (for most flicker
// states) 200 ns; at 1 us it fails the tolerance and the advance falls
// back.
INSTANTIATE_TEST_SUITE_P(
    RoSkip, RoSkipBoundary,
    ::testing::Values(SkipCase{"NoSupply10ns", 1.0e4, false, true},
                      SkipCase{"NoSupply200ns", 2.0e5, false, true},
                      SkipCase{"NoSupply1us", 1.0e6, false, true},
                      SkipCase{"Supply10ns", 1.0e4, true, true},
                      SkipCase{"Supply200ns", 2.0e5, true, true},
                      SkipCase{"Supply1usFallsBack", 1.0e6, true, false}));

/// Sums of consecutive delays from the first toggle after a skip, under the
/// amplified flicker of ConsecutiveDelaySums: they carry the flicker level
/// across the skip, so a wrong m_J shows in their variance. The window
/// (600 ns) keeps 1000+ transitions after about 200 skipped ones.
class RoSkipFlicker : public ::testing::TestWithParam<double> {};

TEST_P(RoSkipFlicker, DelaySumsAfterTheSkipMatchKeepAll) {
  const Picoseconds white_sigma = GetParam();
  NoiseConfig noise = NoiseConfig::white_only();
  noise.flicker_sigma_ps = 1.0;
  noise.flicker_corr = 0.999;
  constexpr Picoseconds kWindow = 6.0e5;
  constexpr Picoseconds kSpan = 7.0e5;
  constexpr int kSamples = 2000;
  constexpr std::size_t kLengths[] = {1, 10, 100, 1000};
  Samples out[2][5];
  auto collect = [&](RingOscillator& osc, Samples* o) {
    osc.reset(0.0);
    osc.advance_to(kWarmUp);
    const Picoseconds t1 = kWarmUp + 10000.0;
    const std::uint64_t c0 = osc.transition_count();
    osc.reset(t1);
    osc.advance_to(t1 + kSpan);
    const Retained r = retained(osc, osc.transition_count() - c0);
    const auto it =
        std::lower_bound(r.times.begin(), r.times.end(), t1 + kSpan - kWindow);
    const auto j0 = static_cast<std::size_t>(it - r.times.begin());
    ASSERT_LT(j0 + kLengths[3], r.times.size());
    for (int l = 0; l < 4; ++l) {
      o[l].x.push_back(r.times[j0 + kLengths[l]] - r.times[j0]);
    }
    o[4].x.push_back(r.times[j0 + 2] - 2.0 * r.times[j0 + 1] + r.times[j0]);
  };
  int steps = 0;
  for (std::uint64_t i = 0; i < kSamples; ++i) {
    RingOscillator skip(kDelays, white_sigma, noise, nullptr, 5000 + i,
                        kWindow);
    RingOscillator keep(kDelays, white_sigma, noise, nullptr, 700000 + i,
                        kKeepAll);
    collect(skip, out[0]);
    collect(keep, out[1]);
    if (HasFatalFailure()) return;
    if (i == 0) {
      RingOscillator twin(kDelays, white_sigma, noise, nullptr, 5000, kKeepAll);
      Samples unused[5];
      collect(twin, unused);
      steps += stepped(skip, twin) ? 1 : 0;
    }
  }
  EXPECT_EQ(steps, 1);
  for (int l = 0; l < 5; ++l) {
    const std::string what =
        l < 4 ? "L = " + std::to_string(kLengths[l]) : "delay difference";
    EXPECT_TRUE(same_mean(out[0][l], out[1][l])) << what;
    EXPECT_TRUE(same_variance(out[0][l], out[1][l])) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(RoSkip, RoSkipFlicker, ::testing::Values(2.0, 0.1));

/// Checks that every toggle `osc` retains, and its levels, equal the newest
/// toggles of `keep_all`, bit for bit, and that both counted the same
/// transitions.
void expect_identical(const RingOscillator& osc,
                      const RingOscillator& keep_all,
                      const std::string& where) {
  ASSERT_EQ(osc.transition_count(), keep_all.transition_count()) << where;
  for (int s = 0; s < osc.stages(); ++s) {
    const auto& a = osc.toggle_history(s);
    const auto& b = keep_all.toggle_history(s);
    ASSERT_LE(a.size(), b.size()) << where;
    for (std::size_t k = 0; k < a.size(); ++k) {
      ASSERT_EQ(a[k], b[b.size() - a.size() + k])
          << where << ", stage " << s << ", toggle " << k;
    }
    ASSERT_EQ(osc.current_value(s), keep_all.current_value(s)) << where;
  }
}

TEST(RoSkip, JitterOffMatchesKeepAllExactly) {
  // No jitter and no supply: the aggregate step adds the stage delays in
  // the per-transition loop's order and draws zero, so it is exact.
  const NoiseConfig noise = jitter_off(NoiseConfig::white_only());
  for (const Picoseconds t_acc : {1.0e4, 2.0e5}) {
    RingOscillator osc(kDelays, kWhiteSigma, noise, nullptr, 1);
    RingOscillator keep(kDelays, kWhiteSigma, noise, nullptr, 2, kKeepAll);
    int rep = 0;
    for (Picoseconds t0 = 0.0; t0 < 2.0e6; t0 += t_acc + 1234.5, ++rep) {
      osc.reset(t0);
      keep.reset(t0);
      osc.advance_to(t0 + t_acc + 500.0);
      keep.advance_to(t0 + t_acc + 500.0);
      expect_identical(osc, keep, "restart " + std::to_string(rep));
      if (HasFatalFailure()) return;
    }
    if (t_acc == 1.0e4) {
      // No pruning at 10 ns: fewer retained toggles than transitions
      // since the reset means the step ran.
      std::size_t kept = 0;
      for (int s = 0; s < osc.stages(); ++s) kept += osc.toggle_history(s).size();
      EXPECT_LT(kept, 15u);
    }
  }
  // Free running, advanced in steps longer than the window.
  RingOscillator osc(kDelays, kWhiteSigma, noise, nullptr, 1);
  RingOscillator keep(kDelays, kWhiteSigma, noise, nullptr, 2, kKeepAll);
  osc.reset(0.0);
  keep.reset(0.0);
  for (Picoseconds t = 7777.0; t < 2.0e6; t += 7777.0) {
    osc.advance_to(t);
    keep.advance_to(t);
    expect_identical(osc, keep, "free running at " + std::to_string(t));
    if (HasFatalFailure()) return;
  }
}

TEST(RoSkip, SupplySumMatchesTheLoopPathwise) {
  // A white jitter of 5e-5 ps per stage keeps the bound's tolerance
  // (10^-3 of the sum's spread, 10^-6 ps at 200 ns) above its
  // second-order term (2e-8 ps), so the step runs, while the paths differ
  // only by jitter of that size (sd 1.4e-3 ps at 200 ns): every retained
  // toggle must then match a keep-all oscillator on a same-seeded supply
  // to 0.01 ps. The supply term the step sums (about 0.4 ps over 10 ns,
  // 9 ps over 200 ns) would show in full if it were dropped or taken at
  // the wrong times.
  NoiseConfig noise;
  noise.white_sigma_scale = 2.5e-5;
  noise.flicker_sigma_ps = 0.0;
  for (const Picoseconds t_acc : {1.0e4, 2.0e5}) {
    // Same seeds: the two agree bit for bit until a step draws.
    SupplyNoise supply_a(noise, 77), supply_b(noise, 77);
    RingOscillator osc(kDelays, kWhiteSigma, noise, &supply_a, 1);
    RingOscillator keep(kDelays, kWhiteSigma, noise, &supply_b, 1, kKeepAll);
    int stepped_reps = 0;
    int rep = 0;
    for (Picoseconds t0 = 0.0; t0 < 6.0e6; t0 += t_acc + 1234.5, ++rep) {
      osc.reset(t0);
      keep.reset(t0);
      osc.advance_to(t0 + t_acc + 500.0);
      keep.advance_to(t0 + t_acc + 500.0);
      ASSERT_EQ(osc.transition_count(), keep.transition_count());
      for (int s = 0; s < osc.stages(); ++s) {
        const auto& a = osc.toggle_history(s);
        const auto& b = keep.toggle_history(s);
        ASSERT_LE(a.size(), b.size());
        for (std::size_t k = 0; k < a.size(); ++k) {
          ASSERT_NEAR(a[k], b[b.size() - a.size() + k], 1e-2)
              << "t_acc " << t_acc << ", restart " << rep << ", stage " << s;
        }
        ASSERT_EQ(osc.current_value(s), keep.current_value(s));
      }
      stepped_reps += stepped(osc, keep) ? 1 : 0;
    }
    // White-only gains are fixed from the first transition: every
    // restart steps.
    EXPECT_EQ(stepped_reps, rep) << "t_acc " << t_acc;
  }
}

/// Warms a same-seeded pair up to the gains' fixed point, then runs
/// restart conversions and reports whether the skipping oscillator's
/// toggles ever left the keep-all one's.
bool any_step(const NoiseConfig& noise, Picoseconds t_acc) {
  SupplyNoise supply_a(noise, 31), supply_b(noise, 31);
  RingOscillator osc(kDelays, kWhiteSigma, noise, &supply_a, 9);
  RingOscillator keep(kDelays, kWhiteSigma, noise, &supply_b, 9, kKeepAll);
  osc.reset(0.0);
  keep.reset(0.0);
  // The default flicker's gains converge within about 90000 transitions.
  osc.advance_to(1.2e5 * kMeanDelay);
  keep.advance_to(1.2e5 * kMeanDelay);
  Picoseconds t0 = 1.3e5 * kMeanDelay;
  for (int rep = 0; rep < 50; ++rep, t0 += t_acc + 10000.0) {
    osc.reset(t0);
    keep.reset(t0);
    osc.advance_to(t0 + t_acc + 500.0);
    keep.advance_to(t0 + t_acc + 500.0);
    if (stepped(osc, keep)) return true;
  }
  return false;
}

TEST(RoSkip, AttackToneFallsBackToEveryTransition) {
  // The 33.43 MHz attack tone's slope makes the supply bound fail, so the
  // advance simulates every transition: same draws, same toggles.
  for (const Picoseconds t_acc : {1.0e4, 2.0e5}) {
    EXPECT_FALSE(any_step(attack_tone(), t_acc)) << "t_acc " << t_acc;
    // The check can see a step: the default tone takes one.
    EXPECT_TRUE(any_step(NoiseConfig{}, t_acc)) << "t_acc " << t_acc;
  }
}

TEST(RoSkip, SumLawMatchesDirectSums) {
  // The closed-form covariance of (Y_J, m_J) against the sums
  // Vyy = sum_k (sqrt(S) + g A_k)^2, Vym = g sum_k (sqrt(S) + g A_k) rho^k,
  // Vmm = g^2 sum_k rho^2k over k < J, with A_k = rho + ... + rho^k.
  struct Config {
    double white, corr, flicker;
  };
  const Config configs[] = {{2.0, 0.99998, 0.05}, {2.0, 0.999, 1.0},
                            {0.1, 0.999, 1.0},    {0.5, 0.9, 0.3},
                            {0.0, 0.999, 1.0},    {2.0, 0.99998, 0.0},
                            {0.5, 0.0, 0.3}};
  for (const Config& c : configs) {
    DelayJitter jitter(c.white, c.corr, c.flicker);
    for (int i = 0; i < 1000000 && !jitter.converged(); ++i) jitter.next(0.0);
    ASSERT_TRUE(jitter.can_skip());
    const double s = jitter.innovation_var();
    const double g = jitter.kalman_gain() * std::sqrt(s);
    for (const std::uint64_t count : {1u, 2u, 17u, 400u, 5000u}) {
      double vyy = 0.0, vym = 0.0, vmm = 0.0, a = 0.0, rk = 1.0;
      for (std::uint64_t k = 0; k < count; ++k) {
        const double coef = std::sqrt(s) + g * a;
        vyy += coef * coef;
        vym += coef * g * rk;
        vmm += g * g * rk * rk;
        rk *= c.corr;
        a += rk;
      }
      const DelayJitter::SumLaw& law = jitter.sum_law(count);
      // Relative to each entry, with a floor far below J S for entries
      // that vanish.
      const double floor = 1e-14 * static_cast<double>(count) * s;
      const auto tol = [&](double ref) { return 1e-9 * std::fabs(ref) + floor; };
      const std::string where =
          "white " + std::to_string(c.white) + " corr " +
          std::to_string(c.corr) + " J " + std::to_string(count);
      EXPECT_NEAR(law.l11 * law.l11, vyy, tol(vyy)) << where;
      EXPECT_NEAR(law.l11 * law.l21, vym, tol(vym)) << where;
      EXPECT_NEAR(law.l21 * law.l21 + law.l22 * law.l22, vmm, tol(vmm))
          << where;
      if (g > 0.0) {
        EXPECT_NEAR(law.a, a, 1e-9 * static_cast<double>(count)) << where;
        EXPECT_NEAR(law.r, rk, 1e-12) << where;
      }
      EXPECT_GE(jitter.sum_bound(count).sigma, law.l11 * (1.0 - 1e-12))
          << where;
    }
  }
}

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
