// Noise taxonomy of the stochastic model (paper Section 4.1):
//
//   * white (thermal) noise — independent Gaussian jitter added to every
//     transition through a delay element; the ONLY component the model
//     credits with entropy,
//   * flicker (1/f) noise — slowly-varying correlated delay component,
//   * global noise — power-supply modulation common to all oscillators on
//     the die (a deterministic tone plus a slow random walk),
//
// The model worst-cases everything non-white; the simulator implements all
// of them so experiments can check that the model's bound stays a *lower*
// bound when the non-white components are present.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace trng::sim {

struct NoiseConfig {
  /// Scales the fabric's per-stage white-noise sigma (1.0 = nominal die).
  double white_sigma_scale = 1.0;

  /// Stationary std-dev of the AR(1) flicker component added to each stage
  /// traversal. Calibrated so flicker overtakes white jitter at ~1 us of
  /// accumulation — matching the paper's warning that jitter measurements
  /// must stay "order of 1 us or shorter, otherwise low frequency noise
  /// becomes dominant" (Section 5.1).
  Picoseconds flicker_sigma_ps = 0.05;

  /// AR(1) correlation of the flicker component between consecutive
  /// transitions (close to 1 => low-frequency).
  double flicker_corr = 0.99998;

  /// Relative amplitude of the supply tone (multiplies all delays).
  double supply_amp_rel = 5.0e-5;

  /// Frequency of the supply tone (switching regulator).
  double supply_freq_hz = 1.1e6;

  /// Std-dev of the supply random-walk increment per microsecond step,
  /// as a relative delay multiplier.
  double supply_walk_rel_per_step = 1.0e-5;

  /// Convenience: a configuration with only white noise enabled — the
  /// exact world the stochastic model describes.
  static NoiseConfig white_only() {
    NoiseConfig c;
    c.flicker_sigma_ps = 0.0;
    c.supply_amp_rel = 0.0;
    c.supply_walk_rel_per_step = 0.0;
    return c;
  }
};

namespace detail {

/// sin(x) via Cody-Waite argument reduction and an odd Taylor polynomial on
/// [-pi/2, pi/2]. Absolute error < 1e-7 for |x| < 1e8, which modulates the
/// supply tone (relative amplitude ~5e-5) by < 5e-12 — far below every other
/// noise source in the simulation. Used instead of libm sin, whose
/// large-argument reduction costs several times as much.
inline double tone_sin(double x) {
  // Split pi so k * kPiHi is exact for |k| < 2^27 (kPiHi has 26 mantissa
  // bits): the reduction r = x - k*pi then loses no significance.
  constexpr double kInvPi = 0.3183098861837907;
  constexpr double kPiHi = 3.14159265160560607910;
  constexpr double kPiLo = 1.98418714791870343106e-09;
  // Round to nearest (ties to even) by adding and subtracting 1.5 * 2^52:
  // the sum's ulp is 1, so the hardware rounds it, with the same result as
  // std::nearbyint for |x / pi| < 2^51 and without the libm call.
  constexpr double kRoundShift = 6755399441055744.0;
  const double kd = (x * kInvPi + kRoundShift) - kRoundShift;
  const auto k = static_cast<std::int64_t>(kd);
  const double r = (x - kd * kPiHi) - kd * kPiLo;
  const double r2 = r * r;
  // Taylor coefficients of sin about 0 (odd terms through r^11); max error
  // ~r^13/13! ~ 6e-8 at |r| = pi/2.
  const double p =
      r * (1.0 +
           r2 * (-1.6666666666666666e-01 +
                 r2 * (8.3333333333333332e-03 +
                       r2 * (-1.9841269841269841e-04 +
                             r2 * (2.7557319223985893e-06 +
                                   r2 * (-2.5052108385441720e-08))))));
  return (k & 1) ? -p : p;
}

}  // namespace detail

/// The jitter one stage traversal adds on top of its static delay and the
/// supply multiplier: y_i = sigma_w * g_i + f_i, white thermal noise plus
/// the oscillator's AR(1) flicker state f_i = rho * f_{i-1} + c * h_i, with
/// c = sqrt(1 - rho^2) * sigma_f, f_0 = 0 and g, h independent standard
/// normals.
///
/// The y_i are jointly Gaussian, so they can be drawn one conditional at a
/// time: given y_1..y_{i-1}, y_i is normal with mean rho * m and variance S,
/// where m and P are the mean and variance of f_{i-1} given those y's. That
/// is the Kalman filter of the flicker state:
///
///   P_pred = rho^2 P + c^2,   S = P_pred + sigma_w^2,   K = P_pred / S,
///   y_i = rho m + sqrt(S) e_i,   m <- rho m + K sqrt(S) e_i,
///   P <- (1 - K) P_pred,
///
/// with one standard normal e_i per transition where the two-draw form needs
/// g_i and h_i. Every y_i has the same conditional law given the past in
/// both forms, so the joint law of the whole sequence is the same. (P, S, K)
/// do not depend on the draws; in double precision P reaches a fixed point
/// (within about 10^5 transitions at the default noise), after which the
/// divide and the square root are skipped. S = 0 (no white and no flicker
/// noise) gives K = 0.
///
/// Once (P, S, K) are fixed, the next J jitters are linear in e_1..e_J:
/// with g = K sqrt(S) and A_j = rho + ... + rho^j,
///
///   Y_J = y_1 + ... + y_J = A_J m + sum_k e_k (sqrt(S) + g A_{J-k}),
///   m_J = rho^J m + sum_k e_k g rho^{J-k},
///
/// so (Y_J, m_J) given m is one bivariate Gaussian. skip() draws it with two
/// standard normals through the Cholesky factor of its covariance, whose
/// entries are geometric sums in rho (DESIGN.md section 3.5).
class DelayJitter {
 public:
  DelayJitter(Picoseconds white_sigma_ps, double flicker_corr,
              Picoseconds flicker_sigma_ps);

  /// The next transition's jitter, from the standard normal `e`.
  double next(double e) {
    if (!converged_) update_gain();
    const double y = rho_ * mean_ + sqrt_s_ * e;
    mean_ = rho_ * mean_ + gain_ * e;
    return y;
  }

  /// P, S and K of the latest transition.
  double posterior_var() const { return var_; }
  double innovation_var() const { return s_; }
  double kalman_gain() const { return k_; }
  /// True once P has reached its fixed point.
  bool converged() const { return converged_; }

  /// True when skip() applies: the gains are fixed and 0 <= rho < 1 (or
  /// there is no flicker), so the partial sums' variances grow with J.
  bool can_skip() const {
    return converged_ && rho_ >= 0.0 && (rho_ < 1.0 || gain_ == 0.0);
  }

  /// The law of (Y_J, m_J) given m: mean (a m, r m) and covariance L L^T
  /// with L = [[l11, 0], [l21, l22]]; l11 is the standard deviation of Y_J.
  struct SumLaw {
    std::uint64_t count = 0;  ///< J
    double a = 0.0;           ///< A_J
    double r = 0.0;           ///< rho^J
    double l11 = 0.0;
    double l21 = 0.0;
    double l22 = 0.0;
  };
  /// The closed form for J = `count` >= 1; requires can_skip(). The last
  /// law computed is cached: a fixed accumulation time asks for the same J
  /// almost every time.
  const SumLaw& sum_law(std::uint64_t count);

  /// Cheap bounds on the next `count` jitters' partial sums given the
  /// state, for every j <= count: |E[Y_j]| <= mean_abs and
  /// sd(Y_j) <= sigma. Requires can_skip().
  struct SumBound {
    double mean_abs = 0.0;
    double sigma = 0.0;
  };
  SumBound sum_bound(std::uint64_t count) const {
    const double j = static_cast<double>(count);
    const double a = std::min(j, a_limit_);  // A_j <= min(j, rho / (1 - rho))
    return {std::fabs(mean_) * a, std::sqrt(j) * (sqrt_s_ + gain_ * a)};
  }

  /// A bound, at kPolarGaussianBound standard deviations, on any one of the
  /// next jitters given the state: |rho m_{i-1}| + B (sqrt(S) + g sd(m)).
  double step_bound() const {
    return std::fabs(rho_ * mean_) +
           common::kPolarGaussianBound * (sqrt_s_ + gain_ * m_sd_per_gain_);
  }

  /// Replaces the next `count` transitions' next() calls: returns Y_J and
  /// leaves the flicker mean at m_J, drawn from `rng` (one standard normal,
  /// two with flicker). Requires can_skip().
  double skip(std::uint64_t count, common::Xoshiro256StarStar& rng) {
    const SumLaw& law = sum_law(count);
    const double e1 = rng.next_gaussian();
    const double e2 = law.l22 > 0.0 ? rng.next_gaussian() : 0.0;
    const double y = law.a * mean_ + law.l11 * e1;
    mean_ = law.r * mean_ + (law.l21 * e1 + law.l22 * e2);
    return y;
  }

 private:
  void update_gain() {
    const double pred = rho2_ * var_ + c2_;
    s_ = pred + w2_;
    k_ = s_ > 0.0 ? pred / s_ : 0.0;
    sqrt_s_ = std::sqrt(s_);
    gain_ = k_ * sqrt_s_;
    const double var = (1.0 - k_) * pred;
    converged_ = var == var_;
    var_ = var;
  }

  double rho_;
  double rho2_;
  double c2_;  ///< c^2, the flicker innovation variance
  double w2_;  ///< sigma_w^2
  double mean_ = 0.0;  ///< m
  double var_ = 0.0;   ///< P
  double s_ = 0.0;
  double k_ = 0.0;
  double sqrt_s_ = 0.0;
  double gain_ = 0.0;  ///< K sqrt(S)
  bool converged_ = false;
  double a_limit_;        ///< rho / (1 - rho), the limit of A_j
  double m_sd_per_gain_;  ///< 1 / sqrt(1 - rho^2): sd(m) <= g times this
  SumLaw law_;            ///< the last sum_law()
};

/// Common-mode supply/global noise: every delay element on the die sees the
/// same multiplicative modulation. Shared (by reference) between all
/// oscillators so differential measurements cancel it — which is exactly why
/// the paper's jitter measurement is differential (Section 5.1).
///
/// The multiplier is 1 + tone(t) + walk(t). The tone is a sinusoid of
/// configured amplitude and frequency with a seeded phase. The walk takes a
/// Gaussian step at every whole microsecond, W_0 = 0 and
/// W_j = W_{j-1} + sigma * N_j, and is linear in between: on step k,
/// [k, k+1) us, it runs from W_{k-1} to W_k. It is continuous, and it is a
/// pure function of t for every t no more than two steps before the newest
/// step queried, so oscillators sharing one supply see the same
/// common-mode value at the same instant whatever order they query in.
class SupplyNoise {
 public:
  /// The walk on one step: walk(t) = slope * t + intercept from the step's
  /// start up to `end`. A zero walk is one segment over all time.
  struct WalkSegment {
    double slope = 0.0;
    double intercept = 0.0;
    Picoseconds end = std::numeric_limits<double>::infinity();
  };

  SupplyNoise(const NoiseConfig& config, std::uint64_t seed);

  /// Delay multiplier at absolute time `t`. Draws walk steps up to t's
  /// step; throws std::logic_error for a t older than the retained steps.
  double multiplier_at(Picoseconds t) {
    const WalkSegment seg = walk_segment(t);
    return (1.0 + tone_at(t)) + (seg.slope * t + seg.intercept);
  }

  /// The tone term amp * sin(omega * t + phase). A zero-amplitude tone is
  /// exactly 0.0.
  double tone_at(Picoseconds t) const {
    return amp_ == 0.0 ? 0.0 : amp_ * detail::tone_sin(omega_per_ps_ * t + phase_);
  }

  /// The tone's quadrature term amp * cos(omega * t + phase), so that
  /// (tone_at, tone_quadrature_at) is the tone's phasor at t.
  double tone_quadrature_at(Picoseconds t) const {
    constexpr double kHalfPi = 1.57079632679489661923;
    return amp_ == 0.0
               ? 0.0
               : amp_ * detail::tone_sin(omega_per_ps_ * t + phase_ + kHalfPi);
  }

  /// Tone angular frequency in rad/ps.
  double omega_per_ps() const { return omega_per_ps_; }
  /// Tone relative amplitude.
  double tone_amplitude() const { return amp_; }

  /// Lipschitz constant of tone + walk in t, per ps: the tone's steepest
  /// slope plus the walk's (a step is at most kPolarGaussianBound sigmas
  /// over one 1 us step).
  double slope_bound() const {
    return std::fabs(amp_ * omega_per_ps_) +
           common::kPolarGaussianBound * std::fabs(walk_sigma_) / kStepPs;
  }

  /// The walk's segment on the step containing `t`, drawing steps up to it.
  /// Throws std::logic_error for a t older than the retained steps.
  WalkSegment walk_segment(Picoseconds t);

 private:
  double amp_;
  double omega_per_ps_;  ///< 2*pi*f in rad/ps
  double phase_;
  double walk_sigma_;
  static constexpr Picoseconds kStepPs = 1.0e6;  ///< 1 us walk step
  /// Step values kept: queries may reach kWalkHistory - 2 steps back.
  static constexpr int kWalkHistory = 4;
  std::int64_t newest_step_ = 0;  ///< index of the newest drawn W_j
  /// W_j for the kWalkHistory newest j, at index j mod kWalkHistory; the
  /// initial zeros stand for W_j = 0 at j <= 0.
  double walk_[kWalkHistory] = {};
  double& walk_value(std::int64_t j) {
    return walk_[static_cast<std::uint64_t>(j) % kWalkHistory];
  }
  common::Xoshiro256StarStar rng_;
};

}  // namespace trng::sim
