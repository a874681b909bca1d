#include "model/stochastic_model.hpp"

#include <algorithm>
#include <cmath>
#include <vector>
#include <stdexcept>

#include "common/gaussian.hpp"
#include "common/stats.hpp"

namespace trng::model {

StochasticModel::StochasticModel(core::PlatformParams platform)
    : platform_(platform) {
  platform_.validate();
}

Picoseconds StochasticModel::sigma_acc(Picoseconds t_a_ps) const {
  if (!(t_a_ps >= 0.0)) {
    throw std::invalid_argument("StochasticModel::sigma_acc: t_A < 0");
  }
  return platform_.sigma_lut_ps * std::sqrt(t_a_ps / platform_.d0_lut_ps);
}

double StochasticModel::p_one(Picoseconds tau_ps, Picoseconds sigma_ps,
                              int k) const {
  if (k < 1) throw std::invalid_argument("StochasticModel::p_one: k < 1");
  const double t = static_cast<double>(k) * platform_.t_step_ps;

  if (sigma_ps <= 0.0) {
    // Deterministic limit: the edge lands exactly at its mean; '1' iff the
    // mean is inside a '1'-bin (centers at even multiples of t, period 2t).
    const double y = std::fabs(std::fmod(tau_ps, 2.0 * t));
    return (y < t / 2.0 || y > 2.0 * t - t / 2.0) ? 1.0 : 0.0;
  }

  // The Gaussian mass beyond ~8.5 sigma is < 1e-17, below double resolution
  // of the sum; truncate the bin index accordingly.
  const auto i_max =
      static_cast<long>(std::ceil((std::fabs(tau_ps) + 8.5 * sigma_ps) /
                                  (2.0 * t))) + 1;
  common::KahanSum sum;
  for (long i = -i_max; i <= i_max; ++i) {
    const double center = 2.0 * static_cast<double>(i) * t;
    const double hi = (tau_ps - (center - t / 2.0)) / sigma_ps;
    const double lo = (tau_ps - (center + t / 2.0)) / sigma_ps;
    // Phi(hi) - Phi(lo), evaluated to avoid cancellation in the tails.
    sum.add(common::normal_sf(lo) - common::normal_sf(hi));
  }
  // Clamp tiny numerical excursions outside [0, 1].
  return std::min(1.0, std::max(0.0, sum.value()));
}

double StochasticModel::shannon_entropy(Picoseconds tau_ps, Picoseconds t_a_ps,
                                        int k) const {
  const double p1 = p_one(tau_ps, sigma_acc(t_a_ps), k);
  return common::binary_entropy(p1);
}

double StochasticModel::entropy_lower_bound(Picoseconds t_a_ps, int k) const {
  return shannon_entropy(0.0, t_a_ps, k);
}

double StochasticModel::worst_case_bias(Picoseconds t_a_ps, int k) const {
  const double p1 = p_one(0.0, sigma_acc(t_a_ps), k);
  return std::max(p1, 1.0 - p1) - 0.5;
}

double StochasticModel::xor_bias(double bias, unsigned np) {
  if (np == 0) throw std::invalid_argument("StochasticModel::xor_bias: np=0");
  if (bias < 0.0 || bias > 0.5) {
    throw std::domain_error("StochasticModel::xor_bias: bias outside [0, 0.5]");
  }
  // Piling-up lemma: b_pp = 2^(np-1) * b^np. Computed in the log domain so
  // np in the tens cannot underflow pairwise.
  // trng-analyzer: allow(TL003) -- exact zero must short-circuit log2(0) = -inf
  if (bias == 0.0) return 0.0;
  const double log2b = std::log2(bias);
  return std::exp2(static_cast<double>(np - 1) +
                   static_cast<double>(np) * log2b);
}

double StochasticModel::entropy_after_postprocessing(Picoseconds t_a_ps, int k,
                                                     unsigned np) const {
  const double b = worst_case_bias(t_a_ps, k);
  const double bpp = xor_bias(b, np);
  return common::binary_entropy(0.5 + bpp);
}

double StochasticModel::p_one_folded(Picoseconds tau_ps, Picoseconds sigma_ps,
                                     int k, Picoseconds wrap_ps,
                                     Picoseconds wrap_phase_ps) const {
  if (k < 1) {
    throw std::invalid_argument("StochasticModel::p_one_folded: k < 1");
  }
  const double t = static_cast<double>(k) * platform_.t_step_ps;
  const double wrap = wrap_ps > 0.0 ? wrap_ps : platform_.d0_lut_ps;
  if (wrap < t) {
    throw std::invalid_argument(
        "StochasticModel::p_one_folded: wrap must be >= one bin");
  }
  const double phase = wrap_phase_ps;
  // Decoded bit for an edge at absolute position x: the observable position
  // re-enters at the wrap boundaries phase + n * wrap; bins follow Eq. 3's
  // convention — centers at even multiples of t decode '1' — so the folded
  // model coincides with p_one() far from any wrap boundary.
  auto bit_at = [&](double x) {
    double y = std::fmod(x - phase, wrap);
    if (y < 0.0) y += wrap;
    y += phase;
    const auto bin = static_cast<long>(std::floor((y + t / 2.0) / t));
    return (bin % 2L + 2L) % 2L == 0L;
  };
  if (sigma_ps <= 0.0) return bit_at(tau_ps) ? 1.0 : 0.0;

  // Integrate the Gaussian over segments of constant bit value. The bit
  // changes at bin boundaries (j + 1/2) t within each wrap period and at
  // the wrap boundaries themselves (where the position resets); enumerate
  // both for every wrap period intersecting +-8.5 sigma.
  const double lo = tau_ps - 8.5 * sigma_ps;
  const double hi = tau_ps + 8.5 * sigma_ps;
  std::vector<double> breaks;
  breaks.push_back(lo);
  breaks.push_back(hi);
  const auto w_lo = static_cast<long>(std::floor((lo - phase) / wrap));
  const auto w_hi = static_cast<long>(std::floor((hi - phase) / wrap));
  for (long w = w_lo; w <= w_hi; ++w) {
    const double base = phase + static_cast<double>(w) * wrap;
    if (base > lo && base < hi) breaks.push_back(base);
    // Bit boundaries within this wrap period: observable coordinates
    // y = (j - 1/2) t for integer j, restricted to [phase, phase + wrap).
    // Jump straight to the first one at or after lo.
    const double y0 = std::ceil((phase - t / 2.0) / t) * t + t / 2.0;
    double x = base + (y0 - phase);
    if (x < lo) x += std::ceil((lo - x) / t) * t;
    for (; x < base + wrap && x < hi; x += t) {
      if (x > lo) breaks.push_back(x);
    }
  }
  std::sort(breaks.begin(), breaks.end());
  common::KahanSum p1;
  for (std::size_t i = 0; i + 1 < breaks.size(); ++i) {
    const double a = breaks[i];
    const double b = breaks[i + 1];
    if (b <= a) continue;
    if (bit_at(0.5 * (a + b))) {
      p1.add(common::normal_cdf((b - tau_ps) / sigma_ps) -
             common::normal_cdf((a - tau_ps) / sigma_ps));
    }
  }
  return std::min(1.0, std::max(0.0, p1.value()));
}

double StochasticModel::folded_entropy_lower_bound_sigma(
    Picoseconds sigma_ps, int k, Picoseconds wrap_ps, int grid) const {
  if (grid < 2) {
    throw std::invalid_argument("folded_entropy_lower_bound_sigma: grid < 2");
  }
  const double wrap = wrap_ps > 0.0 ? wrap_ps : platform_.d0_lut_ps;
  const double t = static_cast<double>(k) * platform_.t_step_ps;
  const int phase_grid = std::max(4, grid / 32);
  double h_min = 1.0;
  for (int ph = 0; ph < phase_grid; ++ph) {
    const double phase = 2.0 * t * (static_cast<double>(ph) + 0.5) /
                         static_cast<double>(phase_grid);
    for (int i = 0; i < grid; ++i) {
      const double tau = wrap * (static_cast<double>(i) + 0.5) /
                         static_cast<double>(grid);
      const double p1 = p_one_folded(tau, sigma_ps, k, wrap, phase);
      h_min = std::min(h_min, common::binary_entropy(p1));
    }
  }
  return h_min;
}

double StochasticModel::folded_entropy_lower_bound(Picoseconds t_a_ps, int k,
                                                   Picoseconds wrap_ps,
                                                   int grid) const {
  return folded_entropy_lower_bound_sigma(sigma_acc(t_a_ps), k, wrap_ps, grid);
}

double StochasticModel::improvement_factor(int k) const {
  if (k < 1) {
    throw std::invalid_argument("StochasticModel::improvement_factor: k < 1");
  }
  const double ratio =
      platform_.d0_lut_ps / (static_cast<double>(k) * platform_.t_step_ps);
  return ratio * ratio;
}

double StochasticModel::throughput_bps(Cycles accumulation_cycles,
                                       unsigned np) const {
  if (accumulation_cycles == 0 || np == 0) {
    throw std::invalid_argument("StochasticModel::throughput_bps: zero arg");
  }
  return platform_.f_clk_hz / static_cast<double>(accumulation_cycles) /
         static_cast<double>(np);
}

}  // namespace trng::model
