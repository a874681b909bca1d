// Embedded online health tests — the paper's stated future work
// ("developing embedded tests for on-the-fly evaluation", Section 7),
// implemented in the style of NIST SP 800-90B Section 4.4 plus a
// total-failure monitor specific to this architecture.
//
//   * RepetitionCountTest — catches a source stuck at one value;
//   * AdaptiveProportionTest — catches large bias within a window;
//   * TotalFailureTest — architecture-specific: a dead oscillator produces
//     captures with NO edge in any delay line, which the extractor reports;
//     consecutive missed edges beyond a cutoff raise the alarm.
//
// All tests are streaming, O(1) state per bit — implementable in a handful
// of slices, as an embedded test must be.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/units.hpp"

namespace trng::core {

/// SP 800-90B 4.4.1. Cutoff C = 1 + ceil(-log2(alpha) / H) for an assessed
/// entropy H per bit and false-positive rate alpha.
class RepetitionCountTest {
 public:
  /// Throws std::invalid_argument unless h_per_bit is in (0, 1] and
  /// alpha_log2 > 0 (alpha = 2^-alpha_log2).
  RepetitionCountTest(double h_per_bit, double alpha_log2 = 20.0);

  /// Feeds one bit; returns true when the alarm fires (the run is then
  /// reset so monitoring can continue).
  bool feed(bool bit);

  /// Returns the monitor to its just-constructed state (run and alarm
  /// counters cleared). Used when the monitored source is replaced — e.g.
  /// the service layer's reseed-and-probation re-admission after a
  /// quarantine — so stale run state cannot leak across sources.
  void reset();

  unsigned cutoff() const { return cutoff_; }
  std::uint64_t alarms() const { return alarms_; }

 private:
  unsigned cutoff_;
  bool last_ = false;
  unsigned run_ = 0;
  std::uint64_t alarms_ = 0;
};

/// SP 800-90B 4.4.2 for binary sources: counts occurrences of the first bit
/// of each window within that window; alarm when the count exceeds a cutoff
/// chosen from a normal approximation of the binomial tail at rate alpha.
class AdaptiveProportionTest {
 public:
  AdaptiveProportionTest(double h_per_bit, unsigned window = 1024,
                         double alpha_log2 = 20.0);

  bool feed(bool bit);

  /// Returns to the just-constructed state (window and alarms cleared).
  void reset();

  unsigned cutoff() const { return cutoff_; }
  std::uint64_t alarms() const { return alarms_; }

 private:
  unsigned window_;
  unsigned cutoff_;
  unsigned pos_ = 0;
  unsigned count_ = 0;
  bool reference_ = false;
  std::uint64_t alarms_ = 0;
};

/// Architecture-specific total-failure monitor: consecutive captures whose
/// delay lines contain no edge mean the oscillator stopped.
class TotalFailureTest {
 public:
  explicit TotalFailureTest(unsigned consecutive_miss_cutoff = 4);

  /// Feeds the extractor's edge_found flag for one capture.
  bool feed(bool edge_found);

  /// Returns to the just-constructed state (miss run and alarms cleared).
  void reset();

  std::uint64_t alarms() const { return alarms_; }

 private:
  unsigned cutoff_;
  unsigned misses_ = 0;
  std::uint64_t alarms_ = 0;
};

/// Aggregate monitor: wires all three tests to the raw bit / capture stream.
class OnlineHealthMonitor {
 public:
  explicit OnlineHealthMonitor(double h_per_bit, double alpha_log2 = 20.0);

  /// Feeds one capture outcome. Returns true when any test alarmed.
  bool feed(bool bit, bool edge_found);

  /// Feeds a packed block of already-extracted bits (the BitSource layer's
  /// native unit). Each bit counts as a successful capture (edge_found =
  /// true) for the total-failure monitor — a BitSource hands out decoded
  /// bits, so missed-edge info is only available via the per-capture
  /// feed(). Returns the number of bits whose feed() returned an alarm.
  std::uint64_t feed_block(const std::uint64_t* words, common::Bits nbits);

  /// Resets all three tests to their just-constructed state (alarm
  /// counters included). The service layer calls this when a quarantined
  /// producer is reseeded: the replacement source starts with a clean
  /// monitor, and probation counts its alarms from zero.
  void reset();

  std::uint64_t total_alarms() const;
  const RepetitionCountTest& repetition() const { return rep_; }
  const AdaptiveProportionTest& proportion() const { return prop_; }
  const TotalFailureTest& total_failure() const { return fail_; }

 private:
  RepetitionCountTest rep_;
  AdaptiveProportionTest prop_;
  TotalFailureTest fail_;
};

}  // namespace trng::core
