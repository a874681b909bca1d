#include "sim/noise.hpp"

#include <cmath>
#include <stdexcept>

namespace trng::sim {

DelayJitter::DelayJitter(Picoseconds white_sigma_ps, double flicker_corr,
                         Picoseconds flicker_sigma_ps)
    : rho_(flicker_corr),
      rho2_(flicker_corr * flicker_corr),
      w2_(white_sigma_ps * white_sigma_ps) {
  const double c = std::sqrt(1.0 - rho2_) * flicker_sigma_ps;
  c2_ = c * c;
}

SupplyNoise::SupplyNoise(const NoiseConfig& config, std::uint64_t seed)
    : amp_(config.supply_amp_rel),
      omega_per_ps_(2.0 * 3.14159265358979323846 * config.supply_freq_hz *
                    1.0e-12),
      walk_sigma_(config.supply_walk_rel_per_step),
      rng_(seed ^ 0x5099177B01523ULL) {
  phase_ = rng_.next_double() * 2.0 * 3.14159265358979323846;
}

SupplyNoise::WalkSegment SupplyNoise::walk_segment(Picoseconds t) {
  // With a zero step sigma the walk is identically zero, so no step is
  // drawn (the draws feed no other consumer).
  if (walk_sigma_ == 0.0) return WalkSegment{};
  // The step k with k * kStepPs <= t < (k + 1) * kStepPs, exactly: the
  // truncated quotient is off by at most one, and k * kStepPs is exact.
  auto k = static_cast<std::int64_t>(t * (1.0 / kStepPs));
  while (static_cast<double>(k) * kStepPs > t) --k;
  while (static_cast<double>(k + 1) * kStepPs <= t) ++k;
  if (k < newest_step_ - (kWalkHistory - 2)) {
    throw std::logic_error(
        "SupplyNoise: time before the retained random-walk steps");
  }
  while (newest_step_ < k) {
    const double w =
        walk_value(newest_step_) + walk_sigma_ * rng_.next_gaussian();
    walk_value(++newest_step_) = w;
  }
  const double w_prev = walk_value(k - 1);
  WalkSegment seg;
  seg.slope = (walk_value(k) - w_prev) / kStepPs;
  seg.intercept = w_prev - seg.slope * (static_cast<double>(k) * kStepPs);
  seg.end = static_cast<double>(k + 1) * kStepPs;
  return seg;
}

}  // namespace trng::sim
