#include "core/elementary.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace trng::core {

ElementaryTrng::ElementaryTrng(Picoseconds d0_ps, Picoseconds sigma_ps,
                               Cycles accumulation_cycles, std::uint64_t seed,
                               Mode mode)
    : d0_(d0_ps),
      sigma_(sigma_ps),
      cycles_(accumulation_cycles),
      mode_(mode),
      schedule_(constants::kSystemClockPeriodPs),
      rng_(seed) {
  if (!(d0_ps > 0.0) || !(sigma_ps >= 0.0) || accumulation_cycles == 0) {
    throw std::invalid_argument("ElementaryTrng: invalid parameters");
  }
  if (mode_ == Mode::kEventDriven) {
    osc_ = std::make_unique<sim::RingOscillator>(
        std::vector<Picoseconds>{d0_}, sigma_, sim::NoiseConfig::white_only(),
        nullptr, seed ^ 0xE1EULL);
  }
}

Picoseconds ElementaryTrng::accumulated_sigma_ps() const {
  return sigma_ * std::sqrt(accumulation_time_ps() / d0_);
}

double ElementaryTrng::throughput_bps() const {
  return schedule_.raw_throughput_bps(cycles_);
}

void ElementaryTrng::generate_into(std::uint64_t* words, common::Bits nbits) {
  // Both branches accumulate each output word in a register and store it
  // once (per-bit |= into `words` would read-modify-write memory every
  // bit); bits at or above `nbits` in the final word stay zero.
  // The packs below are branchless (bool shifted into place): the bit is
  // ~50/50 by design, so a conditional OR would mispredict constantly.
  const std::size_t n = nbits.count();
  std::uint64_t word = 0;
  if (mode_ == Mode::kEventDriven) {
    for (std::size_t i = 0; i < n; ++i) {
      // Restart from reset, accumulate t_A, sample the stage's level.
      osc_->reset(schedule_.cursor_ps());
      const Picoseconds t_sample = schedule_.begin_conversion(cycles_);
      osc_->advance_to(t_sample + 1.0);
      word |= static_cast<std::uint64_t>(osc_->value_at(0, t_sample))
              << (i & 63);
      if ((i & 63) == 63) {
        words[i >> 6] = word;
        word = 0;
      }
    }
    if (common::bit_offset(nbits) != 0) {
      words[common::word_index(nbits).count()] = word;
    }
    return;
  }
  // Analytic kernel, word-packed, on pre-drawn Gaussian blocks. From reset
  // all-high, the one-stage ring toggles at d0, 2*d0, ... so the
  // noise-free value at t is (floor(t / d0) even); accumulated white
  // jitter shifts the effective sampling phase by N(0, sigma_acc^2).
  // sigma_acc and t_acc are pure functions of the construction
  // parameters, the RNG runs on a local copy written back after the loop,
  // and fill_gaussian draws in next_gaussian() order, so the stream does
  // not depend on how the bits are chunked into calls.
  const Picoseconds sigma_acc = accumulated_sigma_ps();
  const Picoseconds t_acc = accumulation_time_ps();
  const Picoseconds d0 = d0_;
  common::Xoshiro256StarStar rng = rng_;
  double gauss[256];
  for (std::size_t done = 0; done < n;) {
    const std::size_t chunk = std::min<std::size_t>(n - done, 256);
    rng.fill_gaussian(gauss, chunk);
    for (std::size_t c = 0; c < chunk; ++c) {
      const Picoseconds jitter = sigma_acc * gauss[c];
      const double phase = (t_acc - jitter) / d0;
      // The clamped phase is >= 0, so truncation is floor (and needs no
      // libm call on baseline x86-64, which has no inline roundsd).
      const auto toggles = static_cast<long long>(std::max(phase, 0.0));
      const std::size_t i = done + c;
      word |= static_cast<std::uint64_t>((toggles & 1) == 0) << (i & 63);
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
}

SourceInfo ElementaryTrng::info() const {
  SourceInfo si;
  si.name = "Elementary RO TRNG";
  si.platform = "Spartan 6 (sim)";
  si.resources = "1 RO + 1 FF";
  si.throughput_bps = throughput_bps();
  return si;
}

}  // namespace trng::core
