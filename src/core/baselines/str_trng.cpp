#include "core/baselines/str_trng.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace trng::core::baselines {

SelfTimedRingTrng::SelfTimedRingTrng(Params params, std::uint64_t seed)
    : params_(params), rng_(seed) {
  if (params_.stages < 2 || !(params_.ring_period_ps > 0.0) ||
      !(params_.sample_rate_hz > 0.0) || !(params_.stage_jitter_ps >= 0.0)) {
    throw std::invalid_argument("SelfTimedRingTrng: invalid parameters");
  }
  const double sample_period_ps = 1.0e12 / params_.sample_rate_hz;
  // Jitter accumulated over one sample period, scaled from the per-ring-
  // period figure (variance linear in elapsed time — same accumulation law
  // as Eq. 1).
  sigma_per_sample_ = params_.stage_jitter_ps *
                      std::sqrt(sample_period_ps / params_.ring_period_ps);
  phase_ps_ = rng_.next_double() * params_.ring_period_ps;
  // The ring period is incommensurate with the sample clock; the residual
  // phase advance per sample sweeps the bins deterministically.
  drift_ps_ = std::fmod(sample_period_ps, params_.ring_period_ps);
  resolution_ps_ = params_.ring_period_ps / static_cast<double>(params_.stages);
}

void SelfTimedRingTrng::generate_into(std::uint64_t* words,
                                      common::Bits nbits) {
  // Per-call setup hoisted once; the walk state and RNG run on locals and
  // are written back after the loop. Each sample advances the phase by the
  // drift plus one Gaussian jitter step and outputs the parity of its
  // Delta-bin. fill_gaussian draws in next_gaussian() order, so the
  // stream does not depend on how the bits are chunked into calls.
  const std::size_t n = nbits.count();
  const double period = params_.ring_period_ps;
  const double drift = drift_ps_;
  const double sigma = sigma_per_sample_;
  const double delta = resolution_ps_;
  double phase = phase_ps_;
  common::Xoshiro256StarStar rng = rng_;
  double gauss[256];
  std::uint64_t word = 0;
  for (std::size_t done = 0; done < n;) {
    const std::size_t chunk = std::min<std::size_t>(n - done, 256);
    rng.fill_gaussian(gauss, chunk);
    for (std::size_t c = 0; c < chunk; ++c) {
      phase += drift + sigma * gauss[c];
      phase = std::fmod(phase, period);
      if (phase < 0.0) phase += period;
      const auto bin = static_cast<long long>(std::floor(phase / delta));
      const std::size_t i = done + c;
      word |= static_cast<std::uint64_t>((bin % 2) != 0) << (i & 63);
      if ((i & 63) == 63) {
        words[i >> 6] = word;
        word = 0;
      }
    }
    done += chunk;
  }
  if (common::bit_offset(nbits) != 0) {
    words[common::word_index(nbits).count()] = word;
  }
  phase_ps_ = phase;
  rng_ = rng;
}

SourceInfo SelfTimedRingTrng::info() const {
  SourceInfo bi;
  bi.name = "[1] Cherkaoui et al. (self-timed ring)";
  bi.platform = params_.platform;
  bi.resources = ">511 LUTs";
  bi.throughput_bps = params_.sample_rate_hz;
  return bi;
}

}  // namespace trng::core::baselines
