// TERO (Transient Effect Ring Oscillator) TRNG of Varchola & Drutarovsky
// [11] ("New High Entropy Element for FPGA Based True Random Number
// Generators", CHES 2010):
//
//   * a bistable loop is kicked into temporary oscillation by each trigger
//     pulse; it oscillates for a *random* number of cycles before settling
//     into a stable state (jitter accumulates multiplicatively in the decay
//     of the duty-cycle asymmetry),
//   * a counter counts the oscillations; the counter LSB is the random bit,
//   * published throughput: 250 kb/s on Spartan-3E (resources not
//     reported).
//
// Behavioural model: the oscillation count for each trigger is drawn from a
// lognormal-ish distribution (Gaussian in the log domain matches the
// multiplicative decay of the TERO asymmetry) around a mean count; the bit
// is the count's parity. Mean count and relative sigma default to values in
// the range reported by Varchola & Drutarovsky (mean ~ 100s of cycles,
// enough spread to cover many parities).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/bitstream.hpp"
#include "core/bit_source.hpp"

namespace trng::core::baselines {

class TeroTrng : public BitSource {
 public:
  struct Params {
    double mean_count = 220.0;   ///< mean oscillation cycles per trigger
    double rel_sigma = 0.045;    ///< relative sigma of the count
    double trigger_rate_hz = 250.0e3;
  };

  TeroTrng(Params params, std::uint64_t seed);
  explicit TeroTrng(std::uint64_t seed) : TeroTrng(Params{}, seed) {}

  /// One trigger per bit: the lognormal count model on pre-drawn Gaussian
  /// blocks, with log(mean_count) and the RNG state hoisted out of the bit
  /// loop.
  void generate_into(std::uint64_t* words, common::Bits nbits) override;

  SourceInfo info() const override;

  /// The raw oscillation count of the most recent trigger (diagnostics).
  long long last_count() const { return last_count_; }

 private:
  Params params_;
  common::Xoshiro256StarStar rng_;
  double log_mean_ = 0.0;  ///< log(mean_count), fixed per design
  long long last_count_ = 0;
};

}  // namespace trng::core::baselines
