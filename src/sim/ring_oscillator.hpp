// Event-based timing simulation of the free-running ring oscillator.
//
// Topology (paper Section 3): one NAND gate (stage 0, inverting, gated by
// ENABLE) followed by n-1 non-inverting buffers; the last buffer output
// closes the loop. With ENABLE low every stage output rests at '1'; on
// ENABLE a single transition is launched and circulates forever, toggling
// each stage output once per half-period (half-period = sum of stage
// delays, ~n * d0).
//
// Every stage traversal adds:
//   * the stage's static elaborated delay (process variation included),
//     scaled by the common-mode supply multiplier at the launch time,
//   * the oscillator's delay jitter: fresh white noise (the entropy-bearing
//     part) plus its AR(1) flicker state, drawn as one Gaussian per
//     transition in the innovations form of DelayJitter.
//
// The simulator keeps a bounded history of recent toggle times per stage so
// the TDC can reconstruct the waveform a delay-line-depth into the past:
// one contiguous vector of toggle times per stage, queryable back to
// now() - history window.
//
// Toggles that would land before that window are never observed, only
// their sum: advance_to replaces the first J transitions of an advance with
// one aggregate step (DelayJitter::skip, two draws) when every skipped
// toggle lands before t - history window even at kPolarGaussianBound
// standard deviations of the aggregate. It advances the pending stage by J,
// flips each stage's level by the parity of its skipped toggles and counts
// the J transitions. With no supply the step is exact in law; with a
// supply it sums the multiplier along the nominal trajectory and runs only
// when that is within a stated bound of the per-transition result
// (DESIGN.md section 3.5); otherwise, and before the jitter gains converge,
// every transition is simulated one at a time.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/noise.hpp"

namespace trng::sim {

/// Kept for callers that name a kernel: both values run the same advance
/// loop. (The enum goes with the next change that may edit those callers.)
enum class AdvanceKernel { kReference, kBatched };

class RingOscillator {
 public:
  /// `stage_delays` come from Fabric elaboration (one entry per stage);
  /// `white_sigma_ps` is the per-traversal thermal jitter std-dev.
  /// `supply` may be nullptr (no global noise) or shared across oscillators.
  /// `history_window_ps` is how far before now() toggles stay queryable;
  /// throws std::invalid_argument unless it is > 0 (NaN included).
  RingOscillator(std::vector<Picoseconds> stage_delays,
                 Picoseconds white_sigma_ps, const NoiseConfig& noise,
                 SupplyNoise* supply, std::uint64_t seed,
                 Picoseconds history_window_ps = kDefaultHistoryWindowPs);

  /// The window a carry-chain capture needs: the 500 ps the sampler
  /// advances past its clock edge, plus the deepest look-back of a paper
  /// m = 36 line (its last tap's cumulative delay, clock skew and static
  /// offset, about 650 ps on the fabric's dies, plus the flip-flops' reach
  /// of about 15 ps), rounded up with margin. Longer lines pass their own
  /// (capture_history_window in sim/delay_line.hpp).
  static constexpr Picoseconds kDefaultHistoryWindowPs = 1500.0;

  int stages() const { return static_cast<int>(stage_delays_.size()); }
  /// Noise-free half-period: sum of static stage delays.
  Picoseconds nominal_half_period() const;

  /// Restarts the oscillator: all outputs high, first transition launched
  /// from the NAND at `t0` (ENABLE rising edge). Clears history; flicker
  /// state persists across restarts (it is a property of the silicon).
  void reset(Picoseconds t0);

  /// Simulates all transitions with arrival time <= t: those that land
  /// before t - history window in one aggregate step where it applies (see
  /// the file comment), the rest one at a time. Both kernel values run the
  /// same code.
  void advance_to(Picoseconds t, AdvanceKernel kernel = AdvanceKernel::kBatched);

  /// Direct read access to `stage`'s retained toggle times (ascending,
  /// contiguous). A TDC line capture reads the few toggles near its taps
  /// straight from it; the tests' per-time level and edge oracles
  /// (tests/oracles.hpp) are built on it and current_value. Inline (with
  /// the bounds check compiled into the caller): queried once per TDC line
  /// capture.
  const std::vector<Picoseconds>& toggle_history(int stage) const {
    if (stage < 0 || stage >= stages()) {
      throw std::out_of_range("RingOscillator::toggle_history: bad stage");
    }
    return stage_[static_cast<std::size_t>(stage)].toggles;
  }

  /// Output value of `stage` at now() (after all retained toggles).
  /// Inline for the same reason as toggle_history.
  bool current_value(int stage) const {
    if (stage < 0 || stage >= stages()) {
      throw std::out_of_range("RingOscillator::current_value: bad stage");
    }
    return stage_[static_cast<std::size_t>(stage)].value != 0;
  }

  /// Total transitions simulated since construction (all stages), skipped
  /// ones included.
  std::uint64_t transition_count() const { return transitions_; }

  /// Time up to which the oscillator has been simulated.
  Picoseconds now() const { return now_; }

  /// How far before now() toggles stay queryable.
  Picoseconds history_window() const { return history_window_; }

 private:
  /// The advance loop, specialised on whether a supply is attached.
  template <bool kSupply>
  void advance_loop(Picoseconds t);
  /// The aggregate step over the transitions that land before `cutoff`.
  template <bool kSupply>
  void skip_to(Picoseconds cutoff);
  void prune_history();

  std::vector<Picoseconds> stage_delays_;
  DelayJitter jitter_;  // persists across reset(), like the flicker state
  SupplyNoise* supply_;  // not owned; may be null
  common::Xoshiro256StarStar rng_;
  Picoseconds history_window_;
  Picoseconds min_delay_ = 0.0;
  Picoseconds max_delay_ = 0.0;
  /// cos and sin of omega * d per stage: the tone phasor's rotation over a
  /// stage's static delay (with a supply only).
  std::vector<double> rot_cos_;
  std::vector<double> rot_sin_;

  // Dynamic per-stage state: the ascending toggle times (capacity is
  // retained across reset(), so restart-mode operation performs no
  // steady-state allocation) and the current output value, byte-backed so
  // the per-transition flip is a plain load/xor/store. Each stage owns a
  // cache line: the advance loop writes it every transition, and a line
  // shared with another thread's hot data (a second producer's oscillator
  // constructed next to this one) would bounce between cores.
  struct alignas(64) Stage {
    std::vector<Picoseconds> toggles;
    unsigned char value = 1;
  };
  std::vector<Stage> stage_;
  int pending_stage_ = 0;          // stage whose output toggles next
  Picoseconds pending_time_ = 0.0; // when it toggles
  bool running_ = false;
  Picoseconds now_ = 0.0;
  std::uint64_t transitions_ = 0;
};

}  // namespace trng::sim
