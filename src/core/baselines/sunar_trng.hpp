// Multi-ring-oscillator TRNG of Sunar/Martin/Stinson [9] as implemented on
// FPGA by Schellekens/Preneel/Verbauwhede [8] ("FPGA vendor agnostic true
// random number generator", FPL 2006):
//
//   * 110 free-running 3-stage ring oscillators,
//   * all outputs XORed together and sampled at f_s = 40 MHz,
//   * resilient-function post-processing compressing 256 -> 16 bits,
//     giving 40 MHz * 16/256 = 2.5 Mb/s.
//
// Behavioural model: each ring's phase performs a Gaussian random walk
// (white jitter per traversal, Eq. 1 applies per ring); the sampled bit is
// the XOR of the rings' square-wave values. The published resilient function
// is a [256, 16, 113] code; we substitute a [256, 16] XOR-fold (each output
// bit the parity of a disjoint 16-bit group), which preserves the
// compression rate and linearity but not the full minimum distance — noted
// as a deviation since Table 2 only uses resources and throughput.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/bitstream.hpp"
#include "core/bit_source.hpp"

namespace trng::core::baselines {

class SunarSchellekensTrng : public BitSource {
 public:
  struct Params {
    int rings = 110;
    int stages_per_ring = 3;
    Picoseconds d0_ps = 480.0;     ///< per-stage delay
    Picoseconds sigma_ps = 2.0;    ///< per-traversal white jitter
    double sample_rate_hz = 40.0e6;
    unsigned code_in = 256;        ///< resilient-function input width
    unsigned code_out = 16;        ///< resilient-function output width
  };

  SunarSchellekensTrng(Params params, std::uint64_t seed);
  SunarSchellekensTrng(std::uint64_t seed)
      : SunarSchellekensTrng(Params{}, seed) {}

  /// Drains the resilient-function buffer, refilling it with the SoA lane
  /// kernel — per sample, one fill_gaussian block of `rings` draws feeds a
  /// flat loop over the per-ring phase/half-period/jitter-scale arrays
  /// (the rings are the parallel lanes).
  void generate_into(std::uint64_t* words, common::Bits nbits) override;

  SourceInfo info() const override;

 private:
  void refill_out_buffer();

  Params params_;
  common::Xoshiro256StarStar rng_;
  std::vector<double> phase_;        ///< per-ring phase in half-periods
  std::vector<double> half_period_;  ///< per-ring half-period (ps)
  /// Per-ring accumulated-jitter scale sigma * sqrt(traversals per sample),
  /// hoisted out of the per-sample loop.
  std::vector<double> sig_step_;
  std::vector<double> gauss_scratch_;  ///< one fill_gaussian block per sample
  double sample_period_ps_;
  std::vector<bool> out_buffer_;
  std::size_t out_pos_ = 0;
};

}  // namespace trng::core::baselines
