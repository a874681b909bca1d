// Elementary ring-oscillator TRNG — the comparison baseline of Section 5.3.
//
// A free-running oscillator is sampled directly by a system-clock flip-flop:
// the jitter accumulation process is identical to the carry-chain TRNG's,
// but the sampling resolution is the oscillator half-period itself (in the
// best case one LUT delay, t_step,RO = d0,LUT), so reaching the same entropy
// bound takes (d0/t_step)^2 ~ 797x more accumulation time (Eq. 8).
//
// Every conversion restarts the one-stage ring from reset (all high) and
// samples it after t_A. The ring toggles at d0, 2*d0, ..., and the
// accumulated white jitter shifts the sampling phase by N(0, sigma_acc^2)
// (Eq. 1), so a bit is 1 iff the phase (t_A - sigma_acc * g) / d0 lies in
// an even bin [2i, 2i + 1) or below 0, where the sampler sees the reset
// level. Conversions share no state, so the stream is i.i.d. Bernoulli(P1),
// P1 being Eq. 3 at t = d0. The kernel draws exactly that law: P1 is
// computed once per construction, and each bit compares one uniform with
// it, 64 bits per word (see generate_into). tests/oracles.hpp keeps per-bit
// references of the same sampler (one Gaussian per bit, and the event-driven
// timing simulation) for the tests.
#pragma once

#include <cstdint>

#include "common/bitstream.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/bit_source.hpp"
#include "sim/accumulation.hpp"

namespace trng::core {

class ElementaryTrng : public BitSource {
 public:
  /// `d0_ps` — oscillator half-period (one LUT in the best case);
  /// `sigma_ps` — white jitter per LUT traversal;
  /// `accumulation_cycles` — N_A at f_clk = 100 MHz.
  ElementaryTrng(Picoseconds d0_ps, Picoseconds sigma_ps,
                 Cycles accumulation_cycles, std::uint64_t seed);

  /// BitSource: `nbits` bits, i.i.d. Bernoulli(p_one()) up to P1's 2^-64
  /// truncation. Bits are generated 64 at a time; the unused tail of the
  /// last word is kept for the next call, so chunking never changes the
  /// stream or the randomness consumed.
  void generate_into(std::uint64_t* words, common::Bits nbits) override;

  /// BitSource: identity + Section 5.3's comparison figures.
  SourceInfo info() const override;

  /// sigma_acc(t_A) = sigma * sqrt(t_A / d0) (Eq. 1).
  Picoseconds accumulated_sigma_ps() const;

  /// P1, the probability of a 1: Eq. 3 at t = d0 plus the mass the sampler
  /// clamps to the reset level (phase below 0), to about 1e-12.
  double p_one() const { return p_one_; }

  double throughput_bps() const;
  Picoseconds accumulation_time_ps() const {
    return schedule_.accumulation_time_ps(cycles_);
  }

 private:
  Picoseconds d0_;
  Picoseconds sigma_;
  Cycles cycles_;
  sim::AccumulationSchedule schedule_;
  common::Xoshiro256StarStar rng_;
  double p_one_ = 0.0;
  std::uint64_t threshold_ = 0;  ///< floor(P1 * 2^64), saturated at 2^64 - 1
  std::uint64_t tail_ = 0;       ///< unused bits of the last word, LSB first
  unsigned tail_bits_ = 0;
};

}  // namespace trng::core
