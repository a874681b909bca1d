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
  stage_.resize(stage_delays_.size());
}

Picoseconds RingOscillator::mean_stage_delay() const {
  Picoseconds sum = 0.0;
  for (Picoseconds d : stage_delays_) sum += d;
  return sum / static_cast<double>(stage_delays_.size());
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
    advance_loop<true>(t);
  } else {
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
    // Keep one toggle before the window so value_at can resolve the level
    // at the window's left edge. Same retention as the old per-element
    // pop_front loop, as one contiguous erase.
    std::size_t drop = 0;
    while (q.size() - drop > 1 && q[drop + 1] < cutoff) ++drop;
    if (drop > 0) {
      q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(drop));
    }
  }
}

bool RingOscillator::value_at(int stage, Picoseconds t) const {
  if (stage < 0 || stage >= stages()) {
    throw std::out_of_range("RingOscillator::value_at: bad stage");
  }
  if (t > now_) {
    throw std::logic_error("RingOscillator::value_at: time not simulated yet");
  }
  if (t < now_ - history_window_) {
    throw std::logic_error(
        "RingOscillator::value_at: time before retained history window");
  }
  const auto& q = stage_[static_cast<std::size_t>(stage)].toggles;
  // Current value was flipped by all retained toggles; undo those after t.
  const auto it = std::upper_bound(q.begin(), q.end(), t);
  const auto after_t = static_cast<std::size_t>(q.end() - it);
  bool v = stage_[static_cast<std::size_t>(stage)].value != 0;
  if (after_t % 2 == 1) v = !v;
  return v;
}

std::vector<Picoseconds> RingOscillator::edges_in(int stage, Picoseconds t0,
                                                  Picoseconds t1) const {
  if (stage < 0 || stage >= stages()) {
    throw std::out_of_range("RingOscillator::edges_in: bad stage");
  }
  if (t1 > now_) {
    throw std::logic_error("RingOscillator::edges_in: time not simulated yet");
  }
  const auto& q = stage_[static_cast<std::size_t>(stage)].toggles;
  std::vector<Picoseconds> out;
  auto lo = std::lower_bound(q.begin(), q.end(), t0);
  auto hi = std::upper_bound(q.begin(), q.end(), t1);
  out.assign(lo, hi);
  return out;
}

}  // namespace trng::sim
