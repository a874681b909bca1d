// SampleController: drives one simulated TRNG datapath through its
// enable -> accumulate t_A -> capture cycle (paper Section 4.2: "the
// oscillator is running for a time t_A, after which the sampling signal is
// activated").
//
// Two operating modes:
//   * restart (paper default): ENABLE is deasserted after every capture and
//     the oscillator restarts from its deterministic reset phase, so each
//     bit accumulates jitter for exactly t_A from a known phase;
//   * free-running: the oscillator is never reset and is sampled every N_A
//     cycles (an ablation mode — the edge phase then drifts slowly through
//     the TDC bins, exercising the full tau range of Figure 7).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "fpga/fabric.hpp"
#include "sim/accumulation.hpp"
#include "sim/delay_line.hpp"
#include "sim/noise.hpp"
#include "sim/ring_oscillator.hpp"

namespace trng::sim {

/// One full conversion, packed: each line's snapshot occupies
/// `words_per_line` consecutive 64-bit words (tap j of line i at
/// words[i * words_per_line + (j >> 6)] bit (j & 63); tail bits zero).
/// The flat buffer is reused across conversions by next_capture_into, so
/// batched generation performs no per-capture allocation in steady state.
struct [[nodiscard]] PackedCapture {
  std::vector<std::uint64_t> words;
  int words_per_line = 0;
  int taps = 0;   ///< taps per line (m)
  int lines = 0;  ///< number of delay lines (n)
  Picoseconds sample_time_ps = 0.0;

  std::uint64_t* line(int i) {
    return words.data() +
           static_cast<std::size_t>(i) * static_cast<std::size_t>(words_per_line);
  }
  const std::uint64_t* line(int i) const {
    return words.data() +
           static_cast<std::size_t>(i) * static_cast<std::size_t>(words_per_line);
  }
};

/// Classification of a full multi-line snapshot, used to reproduce the
/// phenomenology of Figure 4.
enum class SnapshotClass {
  kRegular,     ///< exactly one edge across all lines (Fig. 4a)
  kDoubleEdge,  ///< two or more edges (Fig. 4b)
  kBubbles,     ///< at least one 1-bit-wide glitch next to an edge (Fig. 4c)
  kNoEdge,      ///< all lines constant — the "missed edge" failure (Sec. 5.2)
};

enum class SamplingMode { kRestart, kFreeRunning };

class SampleController {
 public:
  /// `elaborated` comes from Fabric::elaborate; one delay line per RO stage.
  SampleController(const fpga::ElaboratedTrng& elaborated,
                   const fpga::FlipFlopTimingSpec& ff_spec,
                   const NoiseConfig& noise, std::uint64_t seed,
                   SamplingMode mode = SamplingMode::kRestart,
                   Picoseconds clock_period_ps =
                       constants::kSystemClockPeriodPs);

  /// Runs one conversion with `accumulation_cycles` system-clock cycles of
  /// jitter accumulation (t_A = N_A * T_clk) and fills `out` (reusing its
  /// buffer) with the snapshots TappedDelayLineSim::capture_into takes;
  /// that capture matches the dense per-tap capture in law. Throws
  /// std::invalid_argument if accumulation_cycles == 0.
  void next_capture_into(Cycles accumulation_cycles, PackedCapture& out);

  const RingOscillator& oscillator() const { return oscillator_; }

  /// The enable -> accumulate -> capture clock accounting.
  const AccumulationSchedule& schedule() const { return schedule_; }

  /// Sum of metastable captures across all lines (diagnostics).
  std::uint64_t metastable_events() const;

 private:
  NoiseConfig noise_;
  SupplyNoise supply_;
  std::vector<TappedDelayLineSim> lines_;  // before oscillator_: sizes its window
  RingOscillator oscillator_;
  SamplingMode mode_;
  AccumulationSchedule schedule_;
  bool started_ = false;
};

/// Classifies one capture (Figure 4): counts the transitions between
/// neighbouring taps over all lines and looks for bubbles, with one
/// word-level scan per line.
SnapshotClass classify_packed(const PackedCapture& capture);

}  // namespace trng::sim
