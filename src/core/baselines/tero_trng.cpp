#include "core/baselines/tero_trng.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace trng::core::baselines {

TeroTrng::TeroTrng(Params params, std::uint64_t seed)
    : params_(params), rng_(seed) {
  if (!(params_.mean_count > 1.0) || !(params_.rel_sigma > 0.0) ||
      !(params_.trigger_rate_hz > 0.0)) {
    throw std::invalid_argument("TeroTrng: invalid parameters");
  }
  // Fixed per design; hoisted so the per-trigger paths do not re-log.
  log_mean_ = std::log(params_.mean_count);
}

void TeroTrng::generate_into(std::uint64_t* words, common::Bits nbits) {
  // One trigger per bit on pre-drawn Gaussian blocks; RNG and the running
  // count live in locals and are written back after the loop.
  const std::size_t n = nbits.count();
  const double log_mean = log_mean_;
  const double rel_sigma = params_.rel_sigma;
  common::Xoshiro256StarStar rng = rng_;
  long long last = last_count_;
  double gauss[256];
  std::uint64_t word = 0;
  for (std::size_t done = 0; done < n;) {
    const std::size_t chunk = std::min<std::size_t>(n - done, 256);
    rng.fill_gaussian(gauss, chunk);
    for (std::size_t c = 0; c < chunk; ++c) {
      // Multiplicative decay of the TERO asymmetry => lognormal count.
      const double count = std::exp(log_mean + rel_sigma * gauss[c]);
      last = static_cast<long long>(std::llround(count));
      if (last < 1) last = 1;
      const std::size_t i = done + c;
      word |= static_cast<std::uint64_t>((last % 2) != 0) << (i & 63);
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
  rng_ = rng;
  last_count_ = last;
}

SourceInfo TeroTrng::info() const {
  SourceInfo bi;
  bi.name = "[11] Varchola & Drutarovsky (TERO)";
  bi.platform = "Spartan 3E";
  bi.resources = "not reported";
  bi.throughput_bps = params_.trigger_rate_hz;
  return bi;
}

}  // namespace trng::core::baselines
