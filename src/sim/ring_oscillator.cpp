#include "sim/ring_oscillator.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace trng::sim {

namespace {

/// Transitions between two anchors of the tone phasor to tone_sin: bounds
/// the rounding the rotations accumulate.
constexpr int kToneAnchorInterval = 64;

/// Phase steps the rotation polynomial covers; a larger step re-anchors
/// instead. The default 1.1 MHz tone steps about 3.5e-3 rad per stage; the
/// repo's largest step is about 0.11 rad (the 33.43 MHz attack tone over
/// one ~500 ps stage).
constexpr double kMaxToneStep = 0.125;  // 2^-3

/// With a supply, the aggregate step runs only when its bound on the
/// pending toggle's error is at most this fraction of the aggregate's
/// standard deviation (DESIGN.md section 3.5).
constexpr double kSupplySkipTolerance = 1.0e-3;

/// Rotates the phasor (s, c) = a * (sin x, cos x) by d, |d| <= kMaxToneStep:
/// (s, c) <- (s + s * cos_m1 + c * sin_d, c + c * cos_m1 - s * sin_d), with
/// sin_d = sin d and cos_m1 = cos d - 1 as Taylor polynomials in u = d^2 in
/// Estrin form (short dependency chains). They stop where the first omitted
/// terms, d^11/11! and d^12/12!, are below 2^-53 (< 3e-18) over the range.
inline void rotate(double& s, double& c, double d) {
  const double u = d * d;
  const double u2 = u * u;
  const double sin_d =
      d + (d * u) * ((-1.6666666666666666e-01 + u * 8.3333333333333332e-03) +
                     u2 * (-1.9841269841269841e-04 + u * 2.7557319223985893e-06));
  const double cos_m1 =
      u * ((-0.5 + u * 4.1666666666666664e-02) +
           u2 * ((-1.3888888888888889e-03 + u * 2.4801587301587302e-05) +
                 u2 * -2.7557319223985888e-07));
  const double s_next = s + (s * cos_m1 + c * sin_d);
  c = c + (c * cos_m1 - s * sin_d);
  s = s_next;
}

}  // namespace

RingOscillator::RingOscillator(std::vector<Picoseconds> stage_delays,
                               Picoseconds white_sigma_ps,
                               const NoiseConfig& noise, SupplyNoise* supply,
                               std::uint64_t seed,
                               Picoseconds history_window_ps)
    : stage_delays_(std::move(stage_delays)),
      jitter_(white_sigma_ps * noise.white_sigma_scale, noise.flicker_corr,
              noise.flicker_sigma_ps),
      supply_(supply),
      rng_(seed),
      history_window_(history_window_ps) {
  if (stage_delays_.empty()) {
    throw std::invalid_argument("RingOscillator: need at least one stage");
  }
  for (Picoseconds d : stage_delays_) {
    if (!(d > 0.0)) {
      throw std::invalid_argument("RingOscillator: stage delays must be > 0");
    }
  }
  if (!(history_window_ > 0.0)) {
    throw std::invalid_argument("RingOscillator: history window must be > 0");
  }
  stage_.resize(stage_delays_.size());
  min_delay_ = *std::min_element(stage_delays_.begin(), stage_delays_.end());
  max_delay_ = *std::max_element(stage_delays_.begin(), stage_delays_.end());
  if (supply_ != nullptr) {
    for (Picoseconds d : stage_delays_) {
      rot_cos_.push_back(std::cos(supply_->omega_per_ps() * d));
      rot_sin_.push_back(std::sin(supply_->omega_per_ps() * d));
    }
  }
}

Picoseconds RingOscillator::nominal_half_period() const {
  Picoseconds sum = 0.0;
  for (Picoseconds d : stage_delays_) sum += d;
  return sum;
}

void RingOscillator::reset(Picoseconds t0) {
  for (Stage& st : stage_) {
    st.toggles.clear();
    st.value = 1;
  }
  running_ = true;
  now_ = t0;
  // ENABLE rises at t0: the NAND (stage 0) sees both inputs high and its
  // output falls one stage delay later.
  pending_stage_ = 0;
  const double mult = supply_ ? supply_->multiplier_at(t0) : 1.0;
  pending_time_ =
      t0 + stage_delays_[0] * mult + jitter_.next(rng_.next_gaussian());
}

void RingOscillator::advance_to(Picoseconds t, AdvanceKernel /*kernel*/) {
  if (!running_) {
    throw std::logic_error("RingOscillator::advance_to: call reset() first");
  }
  if (supply_ != nullptr) {
    skip_to<true>(t - history_window_);
    advance_loop<true>(t);
  } else {
    skip_to<false>(t - history_window_);
    advance_loop<false>(t);
  }
  now_ = t;
  prune_history();
}

template <bool kSupply>
void RingOscillator::advance_loop(Picoseconds t) {
  // Loop-carried state lives in locals: the toggle push_back below may
  // write through pointers the compiler cannot prove distinct from *this,
  // which would force a reload of every member each iteration.
  const int nstages = stages();
  const Picoseconds* sd = stage_delays_.data();
  Stage* stage = stage_.data();
  DelayJitter jitter = jitter_;
  common::Xoshiro256StarStar rng = rng_;
  Picoseconds pt = pending_time_;
  int ps = pending_stage_;
  std::uint64_t trans = transitions_;

  // The supply multiplier at pt is (1 + tone) + walk without a libm call:
  // the tone is the phasor (tone_s, tone_c), anchored to tone_sin on entry
  // and every kToneAnchorInterval transitions and rotated by omega * delay
  // in between; the walk is linear on its 1 us step, so it is re-derived
  // only when pt crosses the step's end. Nobody else queries the shared
  // supply while this loop runs.
  double omega = 0.0;
  double tone_s = 0.0;
  double tone_c = 0.0;
  int until_anchor = 0;
  SupplyNoise::WalkSegment walk;
  if constexpr (kSupply) {
    omega = supply_->omega_per_ps();
    walk = supply_->walk_segment(pt);
  }

  while (pt <= t) {
    if constexpr (kSupply) {
      if (until_anchor == 0) {
        tone_s = supply_->tone_at(pt);
        tone_c = supply_->tone_quadrature_at(pt);
        until_anchor = kToneAnchorInterval;
      }
      --until_anchor;
    }
    Stage& st = stage[static_cast<std::size_t>(ps)];
    st.toggles.push_back(pt);
    st.value ^= 1u;
    ++trans;

    // Launch the transition into the next stage (wrap without the integer
    // division a % would cost on this per-event path).
    int next = ps + 1;
    if (next == nstages) next = 0;
    // The stage delay times the multiplier (1 + tone) + walk, plus the
    // jitter; summed as d + d * (tone + walk) so the tone's path to the
    // next phase step is short.
    const Picoseconds d = sd[next];
    Picoseconds delay = d + jitter.next(rng.next_gaussian());
    if constexpr (kSupply) {
      delay += d * (tone_s + (walk.slope * pt + walk.intercept));
    }
    // Physical floor: a gate cannot have non-positive propagation delay.
    delay = std::max(delay, 0.05 * d);
    ps = next;
    pt += delay;
    if constexpr (kSupply) {
      const double step = omega * delay;
      if (std::fabs(step) <= kMaxToneStep) {
        rotate(tone_s, tone_c, step);
      } else {
        until_anchor = 0;
      }
      if (pt >= walk.end) walk = supply_->walk_segment(pt);
    }
  }
  jitter_ = jitter;
  rng_ = rng;
  pending_time_ = pt;
  pending_stage_ = ps;
  transitions_ = trans;
}

template <bool kSupply>
void RingOscillator::skip_to(Picoseconds cutoff) {
  // Toggle j of the advance (j = 0 is the pending one, at T0) lands at
  // t~_j + S_j + Y_j: t~_j = T0 + d_1 + ... + d_j is the supply-free
  // nominal time, S_j the supply's term summed along the nominal
  // trajectory t~ + S, and Y_j the sum of j jitters. The step skips the
  // toggles 0..J-1 that land before `cutoff` even with |Y_j| at
  // kPolarGaussianBound standard deviations; the bounds are taken at the
  // most transitions the span could hold, so they cover every j searched.
  const Picoseconds t0 = pending_time_;
  const Picoseconds span = cutoff - t0;
  if (!(span > 0.0) || !jitter_.can_skip()) return;
  const auto cap = static_cast<std::uint64_t>(
      std::min(std::floor(span / min_delay_) + 1.0, 1.0e15));
  const DelayJitter::SumBound bound = jitter_.sum_bound(cap);
  double margin = bound.mean_abs + common::kPolarGaussianBound * bound.sigma;
  double lipschitz = 0.0;
  if constexpr (kSupply) {
    // Evaluating the multiplier at nominal instead of jittered launch
    // times is off by about the slope bound times the deviation, summed
    // over the span (checked exactly below); give up early when that
    // already fails the tolerance.
    lipschitz = supply_->slope_bound();
    if (lipschitz * span *
            (bound.mean_abs +
             (2.0 / 3.0) * common::kPolarGaussianBound * bound.sigma) >
        kSupplySkipTolerance * bound.sigma) {
      return;
    }
    margin += kSupplySkipTolerance * bound.sigma;
  }

  const int nstages = stages();
  const Picoseconds* sd = stage_delays_.data();
  int st = pending_stage_;
  Picoseconds tn = t0;  // t~_J
  double sum = 0.0;     // S_J
  std::uint64_t count = 0;  // J: toggles 0..J-1 are safe
  // Supply terms: the tone phasor at t~_J (the phase error of S_J is
  // corrected to first order below) and the walk's segment.
  double omega = 0.0;
  double tone_s = 0.0;
  double tone_c = 0.0;
  double s_max = 0.0;  // max |tone + walk| along the trajectory
  SupplyNoise::WalkSegment walk;
  if constexpr (kSupply) {
    omega = supply_->omega_per_ps();
    tone_s = supply_->tone_at(t0);
    tone_c = supply_->tone_quadrature_at(t0);
    walk = supply_->walk_segment(t0);
  }
  while (count < cap && tn + sum + margin < cutoff) {
    int next = st + 1;
    if (next == nstages) next = 0;
    const Picoseconds d = sd[next];
    if constexpr (kSupply) {
      // Launch from t~_J + S_J: tone(t~ + S) ~ tone(t~) + omega cos(t~) S.
      const Picoseconds launch = tn + sum;
      if (launch >= walk.end) walk = supply_->walk_segment(launch);
      const double s = (tone_s + omega * tone_c * sum) +
                       (walk.slope * launch + walk.intercept);
      s_max = std::max(s_max, std::fabs(s));
      sum += d * s;
      const double c = rot_cos_[static_cast<std::size_t>(next)];
      const double sn = rot_sin_[static_cast<std::size_t>(next)];
      const double s_next = tone_s * c + tone_c * sn;
      tone_c = tone_c * c - tone_s * sn;
      tone_s = s_next;
    }
    tn += d;
    st = next;
    ++count;
  }
  if (count == 0) return;

  // The delay floor max(delay, 0.05 d) must not bind on any skipped
  // transition: it is not part of the aggregate law.
  if (!(jitter_.step_bound() < min_delay_ * (0.95 - s_max))) return;
  if constexpr (kSupply) {
    // The pending toggle's error: L sum_i d_i |deviation_{i-1}|, with
    // deviation_j <= |E Y_j| + B sd(Y_j) + error, plus the tone's
    // second-order term amp omega^2 S^2 / 2 per unit delay; it compounds
    // through L D < 1/2. Var(Y_j) sums the first j of Var(Y_J)'s J
    // increasing terms, so sd(Y_j) <= sqrt(j / J) sd(Y_J) and
    // sum_{j<J} sd(Y_j) <= (2/3) J sd(Y_J).
    const double span_nom = tn - t0;
    const double ld = lipschitz * span_nom;
    if (!(ld < 0.5)) return;
    const double sigma = jitter_.sum_law(count).l11;
    const double n = static_cast<double>(count);
    const double s_bound = span_nom * s_max;
    const double second_order = 0.5 * std::fabs(supply_->tone_amplitude()) *
                                omega * omega * span_nom * s_bound * s_bound;
    const double error =
        (lipschitz * max_delay_ * n *
             (jitter_.sum_bound(count).mean_abs +
              (2.0 / 3.0) * common::kPolarGaussianBound * sigma) +
         second_order) /
        (1.0 - ld);
    if (!(error <= kSupplySkipTolerance * sigma)) return;
  }

  pending_time_ = tn + sum + jitter_.skip(count, rng_);
  // Every toggle recorded so far precedes T0 and so the window: dropping
  // them keeps each history one contiguous run of transitions. Stage
  // (pending + k) mod n toggled for k, k + n, ... < J.
  for (int k = 0; k < nstages && static_cast<std::uint64_t>(k) < count; ++k) {
    const std::uint64_t toggles =
        (count - 1 - static_cast<std::uint64_t>(k)) /
            static_cast<std::uint64_t>(nstages) +
        1;
    int s = pending_stage_ + k;
    if (s >= nstages) s -= nstages;
    stage_[static_cast<std::size_t>(s)].value ^=
        static_cast<unsigned char>(toggles & 1U);
  }
  for (Stage& stage : stage_) stage.toggles.clear();
  pending_stage_ = st;
  transitions_ += count;
}

void RingOscillator::prune_history() {
  // Lazy: retaining extra history is observably identical (every query
  // depends only on toggles at or after its time plus the count of later
  // toggles), so trimming is deferred until a queue is long enough for the
  // walk to be worth its cost. Restart-mode operation clears the queues at
  // every reset and typically never prunes.
  constexpr std::size_t kPruneThreshold = 64;
  bool any_long = false;
  for (const Stage& st : stage_) {
    any_long = any_long || st.toggles.size() > kPruneThreshold;
  }
  if (!any_long) return;
  const Picoseconds cutoff = now_ - history_window_;
  for (Stage& st : stage_) {
    auto& q = st.toggles;
    // Keep one toggle before the window so the tests' level oracle
    // (tests/oracles.hpp) can resolve the level at the window's left
    // edge. Same retention as the old per-element pop_front loop, as one
    // contiguous erase.
    std::size_t drop = 0;
    while (q.size() - drop > 1 && q[drop + 1] < cutoff) ++drop;
    if (drop > 0) {
      q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(drop));
    }
  }
}

}  // namespace trng::sim
