// Elementary ring-oscillator TRNG — the comparison baseline of Section 5.3.
//
// A free-running oscillator is sampled directly by a system-clock flip-flop:
// the jitter accumulation process is identical to the carry-chain TRNG's,
// but the sampling resolution is the oscillator half-period itself (in the
// best case one LUT delay, t_step,RO = d0,LUT), so reaching the same entropy
// bound takes (d0/t_step)^2 ~ 797x more accumulation time (Eq. 8).
//
// Two implementations are provided:
//   * kEventDriven — full timing simulation (one-stage RingOscillator),
//     used to validate the analytic path;
//   * kAnalytic — closed-form sampling of the accumulated-jitter Gaussian;
//     equivalent in distribution and fast enough for the multi-microsecond
//     accumulation times the elementary TRNG needs.
#pragma once

#include <cstdint>
#include <memory>

#include "common/bitstream.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/bit_source.hpp"
#include "sim/accumulation.hpp"
#include "sim/ring_oscillator.hpp"

namespace trng::core {

class ElementaryTrng : public BitSource {
 public:
  enum class Mode { kEventDriven, kAnalytic };

  /// `d0_ps` — oscillator half-period (one LUT in the best case);
  /// `sigma_ps` — white jitter per LUT traversal;
  /// `accumulation_cycles` — N_A at f_clk = 100 MHz.
  ElementaryTrng(Picoseconds d0_ps, Picoseconds sigma_ps,
                 Cycles accumulation_cycles, std::uint64_t seed,
                 Mode mode = Mode::kAnalytic);

  /// BitSource: `nbits` bits. In analytic mode the closed-form kernel runs
  /// word-packed on pre-drawn Gaussian blocks; in event-driven mode each
  /// bit runs the timing simulation.
  void generate_into(std::uint64_t* words, common::Bits nbits) override;

  /// BitSource: identity + Section 5.3's comparison figures.
  SourceInfo info() const override;

  /// sigma_acc(t_A) = sigma * sqrt(t_A / d0) (Eq. 1).
  Picoseconds accumulated_sigma_ps() const;

  double throughput_bps() const;
  Picoseconds accumulation_time_ps() const {
    return schedule_.accumulation_time_ps(cycles_);
  }

 private:
  Picoseconds d0_;
  Picoseconds sigma_;
  Cycles cycles_;
  Mode mode_;
  sim::AccumulationSchedule schedule_;
  common::Xoshiro256StarStar rng_;
  std::unique_ptr<sim::RingOscillator> osc_;  // event-driven mode only
};

}  // namespace trng::core
