// Self-timed-ring TRNG of Cherkaoui/Fischer/Fesquet/Aubert [1]
// ("A very high speed true random number generator with entropy
// assessment", CHES 2013):
//
//   * an L = 511 stage self-timed (asynchronous, Muller-gate) ring holding
//     many tokens whose events are evenly spaced Delta = T / L apart —
//     effectively a multi-phase clock with phase resolution far below a
//     gate delay,
//   * one system-clock flip-flop samples a ring phase; because the phase
//     grid is so fine, a fresh sample falls in a new Delta-bin every time
//     and the per-sample entropy is high without long accumulation,
//   * published throughput: 133 Mb/s (Cyclone 3) / 100 Mb/s (Virtex 5),
//     resources > 511 LUTs for the ring alone.
//
// Behavioural model: the sampled phase offset performs a Gaussian random
// walk between samples (jitter accumulated over one sample period), plus a
// small incommensurate drift (ring period is never an exact multiple of the
// sample period); the output bit is the parity of the Delta-bin containing
// the phase — the same "alternating bins" digitization as the paper's TDC,
// with Delta playing the role of t_step.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/bitstream.hpp"
#include "core/bit_source.hpp"

namespace trng::core::baselines {

class SelfTimedRingTrng : public BitSource {
 public:
  struct Params {
    int stages = 511;                 ///< L
    /// T (~400 MHz event train). Deliberately incommensurate with the
    /// 10 ns sample period so the sampled phase sweeps the bins (a real
    /// STR's period never divides the system clock exactly).
    Picoseconds ring_period_ps = 2497.3;
    Picoseconds stage_jitter_ps = 2.5;    ///< event-train jitter per period
    double sample_rate_hz = 100.0e6;      ///< Virtex-5 figure
    /// Reported platform for info(); Table 2 lists both the Virtex-5 and
    /// the (faster) Cyclone-3 implementations of the same design.
    std::string platform = "Virtex 5";
  };

  SelfTimedRingTrng(Params params, std::uint64_t seed);
  explicit SelfTimedRingTrng(std::uint64_t seed)
      : SelfTimedRingTrng(Params{}, seed) {}

  /// One phase-walk step per bit, on block Gaussian fills, with the per-call
  /// setup (bin width, period, RNG state) hoisted out of the bit loop.
  void generate_into(std::uint64_t* words, common::Bits nbits) override;

  SourceInfo info() const override;

 private:
  Params params_;
  common::Xoshiro256StarStar rng_;
  double phase_ps_ = 0.0;      ///< sampled phase offset within the period
  double drift_ps_ = 0.0;      ///< deterministic incommensurate drift/sample
  double sigma_per_sample_ = 0.0;
  /// Phase-bin width Delta = T / L (fixed per design; hoisted to a member
  /// at construction so the sampling loops do not re-divide).
  double resolution_ps_ = 0.0;
};

}  // namespace trng::core::baselines
