#include "sim/noise.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace trng::sim {

DelayJitter::DelayJitter(Picoseconds white_sigma_ps, double flicker_corr,
                         Picoseconds flicker_sigma_ps)
    : rho_(flicker_corr),
      rho2_(flicker_corr * flicker_corr),
      w2_(white_sigma_ps * white_sigma_ps),
      a_limit_(flicker_corr < 1.0
                   ? flicker_corr / (1.0 - flicker_corr)
                   : std::numeric_limits<double>::infinity()),
      m_sd_per_gain_(std::fabs(flicker_corr) < 1.0
                         ? 1.0 / std::sqrt(1.0 - flicker_corr * flicker_corr)
                         : 0.0) {
  const double c = std::sqrt(1.0 - rho2_) * flicker_sigma_ps;
  c2_ = c * c;
}

const DelayJitter::SumLaw& DelayJitter::sum_law(std::uint64_t count) {
  if (count == law_.count) return law_;
  const double j = static_cast<double>(count);
  const double s = s_;
  const double g = gain_;
  double vyy = j * s;
  double vym = 0.0;
  double vmm = 0.0;
  law_.a = 0.0;
  law_.r = 1.0;
  if (g > 0.0) {
    // With q = 1 - rho: G1 = sum_{i<J} rho^i = (1 - rho^J) / q,
    // G2 = sum_{i<J} rho^{2i} = (1 - rho^{2J}) / (q (1 + rho)), and
    // sqrt(S) + g A_i = sqrt(S) + b (1 - rho^i) with b = g rho / q, so
    //   Vyy = J S + 2 sqrt(S) b (J - G1) + b^2 (J - 2 G1 + G2),
    //   Vym = g (sqrt(S) G1 + b (G1 - G2)),   Vmm = g^2 G2.
    // 1 - rho^J is -expm1(J log1p(-q)), accurate when rho^J is near 1.
    const double q = 1.0 - rho_;
    const double log_rho = std::log1p(-q);
    const double one_minus_rj = -std::expm1(j * log_rho);
    const double g1 = one_minus_rj / q;
    const double g2 = -std::expm1(2.0 * j * log_rho) / (q * (1.0 + rho_));
    const double b = g * rho_ / q;
    vyy += 2.0 * sqrt_s_ * b * (j - g1) + b * b * ((j - 2.0 * g1) + g2);
    vym = g * (sqrt_s_ * g1 + b * (g1 - g2));
    vmm = g * g * g2;
    law_.a = rho_ * g1;
    law_.r = 1.0 - one_minus_rj;
  }
  law_.count = count;
  law_.l11 = std::sqrt(vyy);
  law_.l21 = law_.l11 > 0.0 ? vym / law_.l11 : 0.0;
  law_.l22 = std::sqrt(std::max(0.0, vmm - law_.l21 * law_.l21));
  return law_;
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
