// The ring-oscillator advance written the direct way, used only by tests.
//
// sim::RingOscillator draws each stage traversal's jitter from its one-step
// conditional (sim::DelayJitter: one Gaussian per transition) and tracks the
// supply tone as a rotating phasor anchored to tone_sin. This oracle is the
// model as the physics states it: per transition a white Gaussian and a
// flicker Gaussian, the AR(1) flicker state updated from the second, and
// SupplyNoise::multiplier_at evaluated at every launch. It takes the same
// constructor arguments and exposes the same toggle histories (never
// pruned). The two agree in law, and pathwise when the jitter is off.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/noise.hpp"

namespace trng::test {

class ReferenceRingOscillator {
 public:
  ReferenceRingOscillator(std::vector<Picoseconds> stage_delays,
                          Picoseconds white_sigma_ps,
                          const sim::NoiseConfig& noise,
                          sim::SupplyNoise* supply, std::uint64_t seed)
      : stage_delays_(std::move(stage_delays)),
        white_sigma_(white_sigma_ps * noise.white_sigma_scale),
        flicker_corr_(noise.flicker_corr),
        flicker_coeff_(std::sqrt(1.0 - noise.flicker_corr * noise.flicker_corr) *
                       noise.flicker_sigma_ps),
        supply_(supply),
        rng_(seed),
        toggles_(stage_delays_.size()) {}

  int stages() const { return static_cast<int>(stage_delays_.size()); }

  /// All outputs high, first transition launched from stage 0 at t0; the
  /// flicker state carries over.
  void reset(Picoseconds t0) {
    for (auto& q : toggles_) q.clear();
    pending_stage_ = 0;
    pending_time_ = t0 + stage_delays_[0] * multiplier(t0) + jitter();
  }

  /// Every transition with arrival time <= t.
  void advance_to(Picoseconds t) {
    while (pending_time_ <= t) {
      toggles_[static_cast<std::size_t>(pending_stage_)].push_back(pending_time_);
      ++transitions_;
      const int next = (pending_stage_ + 1) % stages();
      const Picoseconds d = stage_delays_[static_cast<std::size_t>(next)];
      const Picoseconds delay =
          std::max(d * multiplier(pending_time_) + jitter(), 0.05 * d);
      pending_stage_ = next;
      pending_time_ += delay;
    }
  }

  const std::vector<Picoseconds>& toggle_history(int stage) const {
    return toggles_[static_cast<std::size_t>(stage)];
  }
  std::uint64_t transition_count() const { return transitions_; }

 private:
  double multiplier(Picoseconds t) {
    return supply_ != nullptr ? supply_->multiplier_at(t) : 1.0;
  }

  /// sigma_w * g + f, with f = rho * f + c * h: two draws.
  double jitter() {
    flicker_state_ =
        flicker_corr_ * flicker_state_ + flicker_coeff_ * rng_.next_gaussian();
    return white_sigma_ * rng_.next_gaussian() + flicker_state_;
  }

  std::vector<Picoseconds> stage_delays_;
  double white_sigma_;
  double flicker_corr_;
  double flicker_coeff_;
  sim::SupplyNoise* supply_;
  common::Xoshiro256StarStar rng_;
  std::vector<std::vector<Picoseconds>> toggles_;
  int pending_stage_ = 0;
  Picoseconds pending_time_ = 0.0;
  double flicker_state_ = 0.0;
  std::uint64_t transitions_ = 0;
};

}  // namespace trng::test
