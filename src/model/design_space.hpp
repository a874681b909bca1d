// Design-space exploration (paper Section 4.4, "Use of the Model"):
// evaluate the stochastic model over grids of design parameters, find the
// minimal accumulation time for a target entropy bound, and the minimal
// post-processing rate for a target output entropy — the paper's Step 2
// ("determining optimal design parameters").
#pragma once

#include <vector>

#include "model/stochastic_model.hpp"

namespace trng::model {

/// One evaluated design point.
struct DesignPoint {
  int k = 1;
  Cycles accumulation_cycles = 1;
  unsigned np = 1;
  Picoseconds t_a_ps = 0.0;
  double h_raw = 0.0;        ///< worst-case entropy per raw bit
  double bias_raw = 0.0;     ///< worst-case raw bias (Eq. 6)
  double h_post = 0.0;       ///< entropy per post-processed bit
  double throughput_bps = 0.0;
};

class DesignSpaceExplorer {
 public:
  explicit DesignSpaceExplorer(const StochasticModel& model);

  /// Evaluates one design point.
  DesignPoint evaluate(int k, Cycles accumulation_cycles, unsigned np) const;

  /// Full grid sweep (cartesian product).
  std::vector<DesignPoint> sweep(const std::vector<int>& ks,
                                 const std::vector<Cycles>& cycles,
                                 const std::vector<unsigned>& nps) const;

  /// Smallest N_A (clock cycles) with worst-case raw entropy >= target_h.
  /// Throws std::runtime_error if not reached within `max_cycles`.
  Cycles min_accumulation_cycles(int k, double target_h,
                                 Cycles max_cycles = 1u << 20) const;

  /// Continuous-time version: smallest t_A (ps) with H >= target_h,
  /// found by bisection to `tolerance_ps`. Used for Eq. 8 verification,
  /// where the elementary TRNG's t_A is not cycle-quantized.
  Picoseconds min_accumulation_time_ps(int k, double target_h,
                                       Picoseconds tolerance_ps = 1.0) const;

  /// Smallest n_p such that the post-processed entropy >= target_h for the
  /// given (k, N_A). Throws std::runtime_error if no np <= max_np works
  /// (raw bits carry too little entropy, cf. Table 1's "NA" row).
  unsigned min_np(int k, Cycles accumulation_cycles, double target_h,
                  unsigned max_np = 64) const;

 private:
  const StochasticModel& model_;
};

}  // namespace trng::model
