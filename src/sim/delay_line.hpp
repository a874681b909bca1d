// Tapped-delay-line (carry-chain TDC) capture simulation.
//
// Flip-flop j of a line samples the line's signal as it existed
// cumulative_delay[j] ago, at the FF's own effective clock edge
// (ideal edge + clock-tree skew). In signal time the observation instant of
// tap j is therefore
//
//     s_j = t_clk + ff_clock_skew[j] - cumulative_delay[j].
//
// s_j decreases with j — deeper taps look further into the past — and the
// spacing s_j - s_{j+1} is the *effective bin width*, which inherits the
// CARRY4 structural weights, process variation and clock-skew differences
// (the non-linearity the paper fights with the single-clock-region
// constraint and k=4 down-sampling).
//
// If an input edge lands inside a FF's metastability aperture the captured
// bit resolves randomly — the mechanism that produces the "bubbles" of
// Figure 4(c).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fpga/fabric.hpp"
#include "fpga/primitives.hpp"
#include "sim/ring_oscillator.hpp"

namespace trng::sim {

class TappedDelayLineSim {
 public:
  TappedDelayLineSim(const fpga::ElaboratedDelayLine& timing,
                     const fpga::FlipFlopTimingSpec& ff_spec,
                     std::uint64_t seed);

  /// Captures the line fed by `source` stage `stage` at clock edge `t_clk`,
  /// packed LSB-first into `out_words` (tap j -> out_words[j >> 6] bit
  /// (j & 63); the caller provides (taps() + 63) / 64 words, all of which
  /// are overwritten, tail bits zero). `source` must already be advanced
  /// past t_clk + max skew, and must still retain its toggles back to
  /// t_clk - look_back(): throws std::logic_error when
  /// t_clk - look_back() < source.now() - source.history_window().
  ///
  /// Each toggle near the line flips the taps whose nominal instant
  /// precedes it: its rank among the taps' sorted offsets picks a prefix
  /// mask, so the cost scales with the toggles, not with the taps. A
  /// flip-flop draws its dynamic jitter, and its metastability outcome,
  /// only when a toggle lies within half the aperture plus
  /// common::kPolarGaussianBound jitter sigmas of its nominal instant;
  /// further out no draw could change its value. The taps near a toggle
  /// run the flip-flop body in ascending tap order, so the output, the
  /// metastable count and the generator state match the per-tap walk in
  /// tests/capture_oracle.hpp bit for bit.
  void capture_into(const RingOscillator& source, int stage, Picoseconds t_clk,
                    std::uint64_t* out_words);

  /// Nominal observation instant of tap j in signal time (see file
  /// comment), excluding the FF's static threshold offset and dynamic
  /// jitter (use static_offset() for the former).
  Picoseconds observation_time(int tap, Picoseconds t_clk) const;

  /// Static threshold-induced sampling offset of tap j's flip-flop
  /// (fixed per die, drawn at construction).
  Picoseconds static_offset(int tap) const;

  int taps() const { return static_cast<int>(timing_.tap_delay.size()); }

  /// How far before its clock edge a capture reads: the deepest nominal
  /// instant, t_clk + offset_lo_, less the flip-flops' reach.
  Picoseconds look_back() const {
    return ff_spec_.aperture_ps / 2.0 +
           common::kPolarGaussianBound * ff_spec_.dynamic_jitter_sigma_ps -
           offset_lo_;
  }

  /// Number of metastable captures since construction (diagnostics).
  std::uint64_t metastable_events() const { return metastable_events_; }

 private:
  fpga::ElaboratedDelayLine timing_;
  fpga::FlipFlopTimingSpec ff_spec_;
  common::Xoshiro256StarStar rng_;
  std::vector<Picoseconds> static_offset_;  ///< per-FF, fixed per die
  /// Range of skew - cumulative delay + static offset over the taps: the
  /// nominal observation instants span t_clk + [offset_lo_, offset_hi_].
  Picoseconds offset_lo_ = 0.0;
  Picoseconds offset_hi_ = 0.0;
  /// Largest |skew| + |cumulative delay| + |static offset| of a tap: with
  /// |t_clk| it bounds the rounding of a tap's instant.
  Picoseconds magnitude_ = 0.0;
  /// The offsets in ascending order, and entry r of prefix_mask_ (words_
  /// words wide) marks the taps of the r smallest ones.
  std::vector<Picoseconds> sorted_offset_;
  std::vector<std::uint64_t> prefix_mask_;
  std::size_t words_ = 0;
  /// bucket_rank_[b] offsets lie in buckets below b of the taps() equal
  /// buckets over [offset_lo_, offset_hi_]: where a rank search starts.
  std::vector<std::size_t> bucket_rank_;
  double bucket_scale_ = 0.0;  ///< buckets per ps
  std::vector<std::uint64_t> candidates_;  ///< capture_into work buffer

  std::size_t bucket(Picoseconds offset) const;
  /// Number of taps whose offset is below `offset`.
  std::size_t rank_below(Picoseconds offset) const;

  std::uint64_t metastable_events_ = 0;
};

/// How far past a capture's clock edge the oscillator is advanced before
/// the capture.
inline constexpr Picoseconds kCaptureLookaheadPs = 500.0;

/// The history window a RingOscillator needs for captures of look-back
/// `look_back` when it is advanced kCaptureLookaheadPs past the clock
/// edge: their sum plus 1 ps for the rounding of now() - window, and never
/// less than RingOscillator::kDefaultHistoryWindowPs.
Picoseconds capture_history_window(Picoseconds look_back);

}  // namespace trng::sim
