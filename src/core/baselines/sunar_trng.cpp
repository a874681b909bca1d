#include "core/baselines/sunar_trng.hpp"

#include <cmath>
#include <stdexcept>

namespace trng::core::baselines {

SunarSchellekensTrng::SunarSchellekensTrng(Params params, std::uint64_t seed)
    : params_(params), rng_(seed) {
  if (params_.rings < 1 || params_.stages_per_ring < 1 ||
      !(params_.d0_ps > 0.0) || !(params_.sample_rate_hz > 0.0) ||
      params_.code_out == 0 || params_.code_in % params_.code_out != 0) {
    throw std::invalid_argument("SunarSchellekensTrng: invalid parameters");
  }
  sample_period_ps_ = 1.0e12 / params_.sample_rate_hz;
  phase_.resize(static_cast<std::size_t>(params_.rings));
  half_period_.resize(static_cast<std::size_t>(params_.rings));
  sig_step_.resize(static_cast<std::size_t>(params_.rings));
  for (int i = 0; i < params_.rings; ++i) {
    // Process variation de-tunes the rings a few percent; identical rings
    // would phase-lock in the XOR and kill the design, so the spread is
    // essential (and present in real fabric).
    const double spread = 1.0 + 0.03 * rng_.next_gaussian();
    half_period_[static_cast<std::size_t>(i)] =
        static_cast<double>(params_.stages_per_ring) * params_.d0_ps *
        std::max(spread, 0.5);
    phase_[static_cast<std::size_t>(i)] = rng_.next_double() * 2.0;
    // Traversals per sample period; the accumulated-jitter scale (Eq. 1 per
    // ring: variance grows with the number of traversals) is fixed per
    // ring, so fold sigma * sqrt(traversals) once here.
    const double traversals =
        sample_period_ps_ / (half_period_[static_cast<std::size_t>(i)] /
                             static_cast<double>(params_.stages_per_ring));
    sig_step_[static_cast<std::size_t>(i)] =
        params_.sigma_ps * std::sqrt(traversals);
  }
}

void SunarSchellekensTrng::refill_out_buffer() {
  out_buffer_.assign(params_.code_out, false);
  const unsigned group = params_.code_in / params_.code_out;
  const std::size_t rings = phase_.size();
  gauss_scratch_.resize(rings);
  // Hoisted SoA lane state: one contiguous pass per sample over all rings.
  double* phase = phase_.data();
  const double* half = half_period_.data();
  const double* sig = sig_step_.data();
  double* gs = gauss_scratch_.data();
  const double period = sample_period_ps_;
  for (unsigned o = 0; o < params_.code_out; ++o) {
    unsigned parity = 0;
    for (unsigned g = 0; g < group; ++g) {
      // One block draw per sample: ring i consumes value i. Each ring's
      // phase (in half-periods) grows by dt/half_period plus accumulated
      // white jitter; its square-wave value is the parity of completed
      // half-periods.
      rng_.fill_gaussian(gs, rings);
      unsigned acc = 0;
      for (std::size_t i = 0; i < rings; ++i) {
        const double jitter_ps = sig[i] * gs[i];
        phase[i] += (period + jitter_ps) / half[i];
        const auto halves = static_cast<long long>(std::floor(phase[i]));
        acc ^= static_cast<unsigned>((halves % 2) != 0);
      }
      parity ^= acc;
    }
    out_buffer_[o] = parity != 0;
  }
  out_pos_ = 0;
}

void SunarSchellekensTrng::generate_into(std::uint64_t* words,
                                         common::Bits nbits) {
  // Drain the pending resilient-function buffer first, then refill through
  // the lane kernel, so a stream drawn in chunks equals one drawn at once.
  // Each word is accumulated in a register and stored once; tail bits stay
  // zero.
  const std::size_t n = nbits.count();
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (out_pos_ == out_buffer_.size()) refill_out_buffer();
    word |= static_cast<std::uint64_t>(out_buffer_[out_pos_++]) << (i & 63);
    if ((i & 63) == 63) {
      words[i >> 6] = word;
      word = 0;
    }
  }
  if (common::bit_offset(nbits) != 0) {
    words[common::word_index(nbits).count()] = word;
  }
}

SourceInfo SunarSchellekensTrng::info() const {
  SourceInfo bi;
  bi.name = "[8] Schellekens et al. (Sunar construction)";
  bi.platform = "Virtex 2 pro";
  bi.resources = "565 slices";
  bi.throughput_bps = params_.sample_rate_hz *
                      static_cast<double>(params_.code_out) /
                      static_cast<double>(params_.code_in);
  return bi;
}

}  // namespace trng::core::baselines
