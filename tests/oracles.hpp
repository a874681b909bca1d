// Bit-at-a-time references for the packed datapath, used only by tests.
//
// src/ ships one implementation of each operation: the packed Figure 4
// classifier (sim::classify_packed), the packed Figure 5 extractor
// (core::EntropyExtractor::extract_packed) and the Sunar/Schellekens
// resilient-function refill that runs its rings as SoA lanes. The scalar
// forms below restate each one a tap (or a ring) at a time, straight from
// the paper's description, so the tests can check the word-level code
// against them. Plus the test helpers that build packed captures from
// '0'/'1' strings, the elementary TRNG's two per-bit kernels that the
// Bernoulli(P1) kernel replaced (ElementaryReference), and the XOR fold a
// group at a time (xor_fold_per_bit), which common::xor_fold_words's
// prefix-parity gather replaced. And sim::RingOscillator's per-time
// queries (value_at, edges_in), which the capture stopped calling when it
// began reading the retained toggle history directly.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/baselines/sunar_trng.hpp"
#include "core/bit_source.hpp"
#include "core/extractor.hpp"
#include "sim/accumulation.hpp"
#include "sim/ring_oscillator.hpp"
#include "sim/sampler.hpp"

namespace trng::test {

/// One line snapshot, one bool per tap (tap 0 first).
using Snapshot = std::vector<bool>;

/// Packs '0'/'1' strings (tap 0 first, all of one length) into a capture.
inline sim::PackedCapture packed_capture(const std::vector<std::string>& lines) {
  sim::PackedCapture pc;
  pc.lines = static_cast<int>(lines.size());
  pc.taps = lines.empty() ? 0 : static_cast<int>(lines.front().size());
  pc.words_per_line = (pc.taps + 63) / 64;
  pc.words.assign(static_cast<std::size_t>(pc.lines) *
                      static_cast<std::size_t>(pc.words_per_line),
                  0);
  for (int i = 0; i < pc.lines; ++i) {
    std::uint64_t* words = pc.line(i);
    const std::string& line = lines[static_cast<std::size_t>(i)];
    for (int j = 0; j < pc.taps; ++j) {
      words[j >> 6] |=
          static_cast<std::uint64_t>(line[static_cast<std::size_t>(j)] == '1')
          << (j & 63);
    }
  }
  return pc;
}

/// Unpacks every line of a capture into a Snapshot.
inline std::vector<Snapshot> unpack(const sim::PackedCapture& pc) {
  std::vector<Snapshot> lines;
  for (int i = 0; i < pc.lines; ++i) {
    const std::uint64_t* words = pc.line(i);
    Snapshot s(static_cast<std::size_t>(pc.taps));
    for (int j = 0; j < pc.taps; ++j) {
      s[static_cast<std::size_t>(j)] = ((words[j >> 6] >> (j & 63)) & 1ULL) != 0;
    }
    lines.push_back(s);
  }
  return lines;
}

/// Transitions between neighbouring taps of one snapshot.
inline int count_edges(const Snapshot& s) {
  int edges = 0;
  for (std::size_t j = 0; j + 1 < s.size(); ++j) {
    if (s[j] != s[j + 1]) ++edges;
  }
  return edges;
}

/// True when an interior tap differs from both neighbours (010 or 101).
inline bool has_bubble(const Snapshot& s) {
  for (std::size_t j = 1; j + 1 < s.size(); ++j) {
    if (s[j] != s[j - 1] && s[j] != s[j + 1]) return true;
  }
  return false;
}

/// Figure 4 classes of one capture, a tap at a time.
inline sim::SnapshotClass classify_snapshots(const std::vector<Snapshot>& lines) {
  int total_edges = 0;
  bool bubble = false;
  for (const Snapshot& line : lines) {
    total_edges += count_edges(line);
    bubble = bubble || has_bubble(line);
  }
  if (bubble) return sim::SnapshotClass::kBubbles;
  if (total_edges == 0) return sim::SnapshotClass::kNoEdge;
  if (total_edges == 1) return sim::SnapshotClass::kRegular;
  return sim::SnapshotClass::kDoubleEdge;
}

/// Figure 5 a tap at a time: XOR the lines, priority-encode the first
/// edge, merge k bins, output the LSB of the merged position.
inline core::ExtractionResult extract_scalar(const std::vector<Snapshot>& lines,
                                             int k) {
  Snapshot v(lines.front().size(), false);
  for (const Snapshot& line : lines) {
    for (std::size_t j = 0; j < v.size(); ++j) v[j] = v[j] != line[j];
  }
  core::ExtractionResult r;
  for (std::size_t j = 0; j + 1 < v.size(); ++j) {
    if (v[j] != v[j + 1]) {
      r.edge_found = true;
      r.edge_position = static_cast<int>(j);
      r.bit = ((r.edge_position / k) & 1) != 0;
      break;
    }
  }
  return r;
}

/// Output value of `osc`'s `stage` at time `t`, from its retained toggle
/// history. Requires osc.advance_to(>= t) first and t within the retained
/// history window; throws std::logic_error otherwise, and
/// std::out_of_range for a bad stage.
inline bool value_at(const sim::RingOscillator& osc, int stage, Picoseconds t) {
  if (stage < 0 || stage >= osc.stages()) {
    throw std::out_of_range("test::value_at: bad stage");
  }
  if (t > osc.now()) {
    throw std::logic_error("test::value_at: time not simulated yet");
  }
  if (t < osc.now() - osc.history_window()) {
    throw std::logic_error(
        "test::value_at: time before retained history window");
  }
  const std::vector<Picoseconds>& q = osc.toggle_history(stage);
  // The current value was flipped by every retained toggle; undo those
  // after t.
  const auto after_t = q.end() - std::upper_bound(q.begin(), q.end(), t);
  return osc.current_value(stage) != (after_t % 2 == 1);
}

/// Toggle times of `osc`'s `stage` inside [t0, t1] (ascending). Requires
/// t1 <= osc.now() (std::logic_error otherwise); a t0 older than the
/// retained history window silently clips to the window: only retained
/// toggles are returned, and the toggles an aggregate step skipped all lie
/// before the window.
inline std::vector<Picoseconds> edges_in(const sim::RingOscillator& osc,
                                         int stage, Picoseconds t0,
                                         Picoseconds t1) {
  if (stage < 0 || stage >= osc.stages()) {
    throw std::out_of_range("test::edges_in: bad stage");
  }
  if (t1 > osc.now()) {
    throw std::logic_error("test::edges_in: time not simulated yet");
  }
  const std::vector<Picoseconds>& q = osc.toggle_history(stage);
  return {std::lower_bound(q.begin(), q.end(), t0),
          std::upper_bound(q.begin(), q.end(), t1)};
}

/// SunarSchellekensTrng a ring and a bit at a time: the same die (ring
/// de-tuning and start phases drawn from `seed` in constructor order) and
/// the same Gaussian stream, one next_gaussian() per ring per sample.
class SunarReference {
 public:
  using Params = core::baselines::SunarSchellekensTrng::Params;

  SunarReference(Params params, std::uint64_t seed)
      : params_(params),
        rng_(seed),
        sample_period_ps_(1.0e12 / params.sample_rate_hz) {
    for (int i = 0; i < params_.rings; ++i) {
      const double spread = 1.0 + 0.03 * rng_.next_gaussian();
      const double half = static_cast<double>(params_.stages_per_ring) *
                          params_.d0_ps * std::max(spread, 0.5);
      half_period_.push_back(half);
      phase_.push_back(rng_.next_double() * 2.0);
      const double traversals =
          sample_period_ps_ /
          (half / static_cast<double>(params_.stages_per_ring));
      sig_step_.push_back(params_.sigma_ps * std::sqrt(traversals));
    }
  }

  /// One pre-post-processing sample: the XOR of all rings' square waves.
  bool next_raw_sample() {
    bool acc = false;
    for (std::size_t i = 0; i < phase_.size(); ++i) {
      const double jitter_ps = sig_step_[i] * rng_.next_gaussian();
      phase_[i] += (sample_period_ps_ + jitter_ps) / half_period_[i];
      const auto halves = static_cast<long long>(std::floor(phase_[i]));
      acc = acc != ((halves % 2) != 0);
    }
    return acc;
  }

  /// One output bit: the parity of the next code_in / code_out raw samples
  /// (the [code_in, code_out] XOR-fold resilient function).
  bool next_bit() {
    const unsigned group = params_.code_in / params_.code_out;
    bool parity = false;
    for (unsigned g = 0; g < group; ++g) parity = parity != next_raw_sample();
    return parity;
  }

 private:
  Params params_;
  common::Xoshiro256StarStar rng_;
  double sample_period_ps_;
  std::vector<double> phase_;
  std::vector<double> half_period_;
  std::vector<double> sig_step_;
};

/// core::ElementaryTrng a bit at a time, the way it sampled before it drew
/// Bernoulli(P1) words: kGaussian draws one accumulated-jitter Gaussian per
/// bit and reads its toggle parity (the stream AnalyticStreamMatches-
/// TheRecordedDigest pins); kEventDriven runs the one-stage ring's full
/// timing simulation, restarted from reset for every bit.
class ElementaryReference : public core::BitSource {
 public:
  enum class Mode { kGaussian, kEventDriven };

  ElementaryReference(Picoseconds d0_ps, Picoseconds sigma_ps,
                      Cycles accumulation_cycles, std::uint64_t seed,
                      Mode mode)
      : d0_(d0_ps),
        sigma_(sigma_ps),
        cycles_(accumulation_cycles),
        mode_(mode),
        schedule_(constants::kSystemClockPeriodPs),
        rng_(seed) {
    if (mode_ == Mode::kEventDriven) {
      osc_ = std::make_unique<sim::RingOscillator>(
          std::vector<Picoseconds>{d0_}, sigma_,
          sim::NoiseConfig::white_only(), nullptr, seed ^ 0xE1EULL);
    }
  }

  void generate_into(std::uint64_t* words, common::Bits nbits) override {
    const std::size_t n = nbits.count();
    std::fill(words, words + (n + 63) / 64, 0);
    const Picoseconds t_acc = schedule_.accumulation_time_ps(cycles_);
    const Picoseconds sigma_acc = sigma_ * std::sqrt(t_acc / d0_);
    for (std::size_t i = 0; i < n; ++i) {
      bool bit;
      if (mode_ == Mode::kEventDriven) {
        osc_->reset(schedule_.cursor_ps());
        const Picoseconds t_sample = schedule_.begin_conversion(cycles_);
        osc_->advance_to(t_sample + 1.0);
        bit = value_at(*osc_, 0, t_sample);
      } else {
        // From reset all-high the ring toggles at d0, 2*d0, ...; the clamped
        // phase is >= 0, so truncation is floor. next_gaussian() draws in
        // the order the word-packed kernel's fill_gaussian blocks did.
        const double phase = (t_acc - sigma_acc * rng_.next_gaussian()) / d0_;
        bit = (static_cast<long long>(std::max(phase, 0.0)) & 1) == 0;
      }
      words[i >> 6] |= static_cast<std::uint64_t>(bit) << (i & 63);
    }
  }

  core::SourceInfo info() const override {
    core::SourceInfo si;
    si.name = "Elementary RO TRNG (reference)";
    return si;
  }

 private:
  Picoseconds d0_;
  Picoseconds sigma_;
  Cycles cycles_;
  Mode mode_;
  sim::AccumulationSchedule schedule_;
  common::Xoshiro256StarStar rng_;
  std::unique_ptr<sim::RingOscillator> osc_;  // kEventDriven only
};

/// common::xor_fold_words one output bit at a time: each group's parity is
/// the popcount parity of its bits, taken one word-aligned run at a time.
inline void xor_fold_per_bit(const std::uint64_t* in, std::uint64_t* out,
                             std::size_t out_bits, unsigned np) {
  std::uint64_t word = 0;
  std::size_t r = 0;  // first input bit of the current group
  for (std::size_t i = 0; i < out_bits; ++i) {
    unsigned parity = 0;
    for (unsigned left = np; left > 0;) {
      const auto offset = static_cast<unsigned>(r & 63);
      const unsigned take = std::min(left, 64U - offset);
      std::uint64_t run = in[r >> 6] >> offset;
      if (take < 64) run &= (std::uint64_t{1} << take) - 1;
      parity ^= static_cast<unsigned>(std::popcount(run));
      r += take;
      left -= take;
    }
    word |= static_cast<std::uint64_t>(parity & 1U) << (i & 63);
    if ((i & 63) == 63) {
      out[i >> 6] = word;
      word = 0;
    }
  }
  if ((out_bits & 63) != 0) out[out_bits >> 6] = word;
}

}  // namespace trng::test
