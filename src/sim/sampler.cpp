#include "sim/sampler.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace trng::sim {

namespace {

std::vector<TappedDelayLineSim> make_lines(
    const fpga::ElaboratedTrng& elaborated,
    const fpga::FlipFlopTimingSpec& ff_spec, std::uint64_t seed) {
  if (elaborated.lines.size() != elaborated.ro_stage_delay.size()) {
    throw std::invalid_argument(
        "SampleController: need one delay line per RO stage");
  }
  std::vector<TappedDelayLineSim> lines;
  lines.reserve(elaborated.lines.size());
  std::uint64_t line_seed = seed ^ 0x11E5ULL;
  for (const auto& lt : elaborated.lines) {
    lines.emplace_back(lt, ff_spec, line_seed++);
  }
  // PackedCapture assumes a rectangular capture (same m for every line).
  for (const auto& line : lines) {
    if (line.taps() != lines.front().taps()) {
      throw std::invalid_argument(
          "SampleController: all delay lines must have the same tap count");
    }
  }
  return lines;
}

/// The oscillator history the lines' captures read.
Picoseconds history_window_for(const std::vector<TappedDelayLineSim>& lines) {
  Picoseconds look_back = 0.0;
  for (const auto& line : lines) look_back = std::max(look_back, line.look_back());
  return capture_history_window(look_back);
}

}  // namespace

SampleController::SampleController(const fpga::ElaboratedTrng& elaborated,
                                   const fpga::FlipFlopTimingSpec& ff_spec,
                                   const NoiseConfig& noise, std::uint64_t seed,
                                   SamplingMode mode,
                                   Picoseconds clock_period_ps)
    : noise_(noise),
      supply_(noise, seed),
      lines_(make_lines(elaborated, ff_spec, seed)),
      oscillator_(elaborated.ro_stage_delay, elaborated.stage_white_sigma_ps,
                  noise, &supply_, seed ^ 0x05C111A70ULL,
                  history_window_for(lines_)),
      mode_(mode),
      schedule_(clock_period_ps) {}

void SampleController::next_capture_into(Cycles accumulation_cycles,
                                         PackedCapture& out) {
  if (accumulation_cycles == 0) {
    throw std::invalid_argument(
        "SampleController::next_capture_into: accumulation_cycles must be >= 1");
  }
  if (mode_ == SamplingMode::kRestart || !started_) {
    oscillator_.reset(schedule_.cursor_ps());
    started_ = true;
  }
  const Picoseconds t_sample = schedule_.begin_conversion(accumulation_cycles);
  // One advance over the whole accumulation interval.
  oscillator_.advance_to(t_sample + kCaptureLookaheadPs);

  const int taps = lines_.empty() ? 0 : lines_.front().taps();
  const int wpl = (taps + 63) / 64;
  // Shape the capture only when it changes (i.e. on first use): capture_into
  // overwrites every word of every line, so steady-state batched generation
  // neither allocates nor zero-fills per capture.
  if (out.taps != taps || out.lines != static_cast<int>(lines_.size()) ||
      out.words_per_line != wpl) {
    out.taps = taps;
    out.lines = static_cast<int>(lines_.size());
    out.words_per_line = wpl;
    out.words.resize(static_cast<std::size_t>(out.lines) *
                     static_cast<std::size_t>(wpl));
  }
  out.sample_time_ps = t_sample;
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    lines_[i].capture_into(oscillator_, static_cast<int>(i), t_sample,
                           out.line(static_cast<int>(i)));
  }
}

std::uint64_t SampleController::metastable_events() const {
  std::uint64_t total = 0;
  for (const auto& line : lines_) total += line.metastable_events();
  return total;
}

SnapshotClass classify_packed(const PackedCapture& capture) {
  // One fused pass per line: the edge count and the bubble scan share
  // their shifted-neighbour words, and this runs once per generated bit.
  // A bubble is an interior tap differing from both neighbours (010 or
  // 101); it takes precedence over the edge count.
  int total_edges = 0;
  bool bubble = false;
  const int taps = capture.taps;
  if (taps > 1) {
    const std::size_t nwords = (static_cast<std::size_t>(taps) + 63) / 64;
    const std::size_t pairs = static_cast<std::size_t>(taps) - 1;
    const bool has_interior = taps >= 3;
    const std::size_t last =
        has_interior ? static_cast<std::size_t>(taps) - 2 : 0;
    for (int i = 0; i < capture.lines; ++i) {
      const std::uint64_t* words = capture.line(i);
      for (std::size_t w = 0; w < nwords; ++w) {
        const std::uint64_t v = words[w];
        const std::uint64_t prev63 = (w > 0) ? (words[w - 1] >> 63) : 0ULL;
        const std::uint64_t next0 =
            (w + 1 < nwords) ? (words[w + 1] & 1ULL) : 0ULL;
        const std::uint64_t right = (v >> 1) | (next0 << 63);
        // Bit b marks a transition between taps 64w+b and 64w+b+1.
        std::uint64_t x = v ^ right;
        const std::size_t base = w * 64;
        if (pairs < base + 64) {
          const std::size_t valid = pairs > base ? pairs - base : 0;
          x &= valid == 0 ? 0ULL : (~0ULL >> (64 - valid));
        }
        total_edges += std::popcount(x);
        if (has_interior && !bubble) {
          const std::uint64_t left = (v << 1) | prev63;
          const std::uint64_t b = (v ^ left) & (v ^ right);
          // Restrict to interior taps 1 .. taps-2.
          std::uint64_t mask = ~0ULL;
          if (base == 0) mask &= ~1ULL;
          if (last < base) {
            mask = 0;
          } else if (last - base < 63) {
            mask &= ~0ULL >> (63 - (last - base));
          }
          bubble = (b & mask) != 0;
        }
      }
    }
  }
  if (bubble) return SnapshotClass::kBubbles;
  if (total_edges == 0) return SnapshotClass::kNoEdge;
  if (total_edges == 1) return SnapshotClass::kRegular;
  return SnapshotClass::kDoubleEdge;
}

}  // namespace trng::sim
