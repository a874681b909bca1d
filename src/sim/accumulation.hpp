// Shared enable -> accumulate t_A -> capture accounting (paper Section
// 4.2). Both the carry-chain TRNG's SampleController and the elementary
// TRNG previously kept their own cursor/period arithmetic; this class is
// the single home for it:
//
//   * t_A = N_A * T_clk (accumulation time),
//   * the sample instant of each conversion (cursor + t_A),
//   * the next conversion's start (the following clock edge),
//   * raw throughput f_CLK / N_A — Table 1's throughput column.
#pragma once

#include <stdexcept>

#include "common/types.hpp"

namespace trng::sim {

class AccumulationSchedule {
 public:
  /// Throws std::invalid_argument unless clock_period_ps > 0.
  explicit AccumulationSchedule(Picoseconds clock_period_ps)
      : period_(clock_period_ps) {
    if (!(clock_period_ps > 0.0)) {
      throw std::invalid_argument("AccumulationSchedule: bad clock period");
    }
  }

  double clock_hz() const { return 1.0e12 / period_; }

  /// t_A = N_A * T_clk in picoseconds.
  Picoseconds accumulation_time_ps(Cycles accumulation_cycles) const {
    return static_cast<double>(accumulation_cycles) * period_;
  }

  /// Raw bit rate f_CLK / N_A in bits/s.
  double raw_throughput_bps(Cycles accumulation_cycles) const {
    return clock_hz() / static_cast<double>(accumulation_cycles);
  }

  /// Advances one conversion: returns the sample instant (cursor + t_A)
  /// and moves the cursor to the following clock edge. The caller decides
  /// whether the oscillator restarts at the old cursor (restart mode) or
  /// keeps running (free-running mode).
  Picoseconds begin_conversion(Cycles accumulation_cycles) {
    const Picoseconds t_sample =
        cursor_ + accumulation_time_ps(accumulation_cycles);
    cursor_ = t_sample + period_;
    return t_sample;
  }

  /// Current absolute time (cycle-aligned start of the next conversion).
  Picoseconds cursor_ps() const { return cursor_; }

 private:
  Picoseconds period_;
  Picoseconds cursor_ = 0.0;
};

}  // namespace trng::sim
