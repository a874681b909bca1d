// Design- and platform-parameter records (paper Sections 2 and 4.4).
//
// The paper's evaluation flow separates:
//   * platform parameters — physical properties of the die, obtained by
//     measurement: d0,LUT (average LUT delay), t_step (TDC bin width),
//     sigma_LUT (thermal jitter per traversal);
//   * design parameters — chosen by the designer using the stochastic
//     model: n (RO stages), m (TDC taps), k (down-sampling), f_CLK,
//     N_A / t_A (accumulation), n_p (XOR post-processing rate).
#pragma once

#include <stdexcept>

#include "common/types.hpp"
#include "sim/sampler.hpp"

namespace trng::core {

/// Physical parameters of the implementation platform (Section 5.1 values
/// as defaults — the ones measured on the paper's Spartan-6).
struct PlatformParams {
  Picoseconds d0_lut_ps = constants::kNominalLutDelayPs;      ///< d0,LUT
  Picoseconds t_step_ps = constants::kNominalCarryBinPs;      ///< t_step
  Picoseconds sigma_lut_ps = constants::kNominalJitterSigmaPs;///< sigma_LUT
  double f_clk_hz = constants::kSystemClockHz;

  /// Validates physical plausibility; throws std::invalid_argument.
  void validate() const {
    if (!(d0_lut_ps > 0) || !(t_step_ps > 0) || !(sigma_lut_ps > 0) ||
        !(f_clk_hz > 0)) {
      throw std::invalid_argument("PlatformParams: all values must be > 0");
    }
  }
};

/// Designer-chosen parameters of one TRNG instance.
struct DesignParams {
  int n = 3;   ///< ring-oscillator stages (paper: 3)
  int m = 36;  ///< TDC taps per line, multiple of 4 (paper: 36)
  int k = 1;   ///< down-sampling factor (paper: 1 or 4)

  /// N_A: accumulation time in system-clock cycles; t_A = N_A * T_clk.
  Cycles accumulation_cycles = 1;

  /// XOR post-processing compression rate n_p (1 = raw output). The TRNG
  /// itself emits raw bits; XorCompressedSource applies this rate.
  unsigned np = 1;

  sim::SamplingMode mode = sim::SamplingMode::kRestart;

  Picoseconds accumulation_time_ps(double f_clk_hz) const {
    return static_cast<double>(accumulation_cycles) * 1.0e12 / f_clk_hz;
  }

  /// Throws std::invalid_argument if the combination is not implementable.
  void validate() const {
    if (n < 1) throw std::invalid_argument("DesignParams: n must be >= 1");
    if (m < 4 || m % 4 != 0) {
      throw std::invalid_argument(
          "DesignParams: m must be a positive multiple of 4");
    }
    if (k < 1 || k > m) {
      throw std::invalid_argument("DesignParams: k must be in [1, m]");
    }
    if (accumulation_cycles == 0) {
      throw std::invalid_argument(
          "DesignParams: accumulation_cycles must be >= 1");
    }
    if (np == 0) throw std::invalid_argument("DesignParams: np must be >= 1");
  }
};

}  // namespace trng::core
