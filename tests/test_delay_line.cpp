// Unit tests for the tapped-delay-line (TDC) capture simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fpga/fabric.hpp"
#include "model/nonlinearity.hpp"
#include "oracles.hpp"
#include "sim/delay_line.hpp"
#include "sim/sampler.hpp"

namespace trng::sim {
namespace {

/// An ideal elaborated line: m taps of exactly `bin` ps, zero skew.
fpga::ElaboratedDelayLine ideal_line(int m, Picoseconds bin = 17.0) {
  fpga::ElaboratedDelayLine line;
  double cum = 0.0;
  for (int j = 0; j < m; ++j) {
    cum += bin;
    line.tap_delay.push_back(bin);
    line.cumulative_delay.push_back(cum);
    line.ff_clock_skew.push_back(0.0);
  }
  return line;
}

fpga::FlipFlopTimingSpec ideal_ff() {
  fpga::FlipFlopTimingSpec ff;
  ff.aperture_ps = 0.0;
  ff.static_offset_sigma_ps = 0.0;
  ff.dynamic_jitter_sigma_ps = 0.0;
  return ff;
}

/// The oscillators here are queried several nanoseconds into the past, so
/// they keep a longer history than a capture needs.
RingOscillator noiseless_osc(Picoseconds d0 = 480.0) {
  return RingOscillator({d0, d0, d0}, 0.0, NoiseConfig::white_only(), nullptr,
                        1, 6000.0);
}

/// One capture of `line`, unpacked to a bool per tap.
test::Snapshot capture(TappedDelayLineSim& line, const RingOscillator& osc,
                       int stage, Picoseconds t_clk) {
  PackedCapture pc;
  pc.lines = 1;
  pc.taps = line.taps();
  pc.words_per_line = (pc.taps + 63) / 64;
  pc.words.resize(static_cast<std::size_t>(pc.words_per_line));
  line.capture_into(osc, stage, t_clk, pc.line(0));
  return test::unpack(pc).front();
}

SnapshotClass classify(const std::vector<std::string>& lines) {
  return classify_packed(test::packed_capture(lines));
}

/// `m` taps of `fill` with the taps in `flipped` inverted.
std::string taps(int m, char fill, std::initializer_list<int> flipped = {}) {
  std::string s(static_cast<std::size_t>(m), fill);
  for (int j : flipped) {
    s[static_cast<std::size_t>(j)] = fill == '1' ? '0' : '1';
  }
  return s;
}

TEST(TappedDelayLine, RejectsInconsistentTiming) {
  fpga::ElaboratedDelayLine bad;
  EXPECT_THROW(TappedDelayLineSim(bad, ideal_ff(), 1), std::invalid_argument);
  bad = ideal_line(4);
  bad.ff_clock_skew.pop_back();
  EXPECT_THROW(TappedDelayLineSim(bad, ideal_ff(), 1), std::invalid_argument);
}

TEST(TappedDelayLine, ObservationTimesDecreaseWithDepth) {
  TappedDelayLineSim line(ideal_line(36), ideal_ff(), 1);
  for (int j = 0; j + 1 < 36; ++j) {
    EXPECT_GT(line.observation_time(j, 1000.0),
              line.observation_time(j + 1, 1000.0));
  }
  EXPECT_THROW(line.observation_time(36, 0.0), std::out_of_range);
}

TEST(TappedDelayLine, EffectiveBinWidthsMatchIdealTiming) {
  // The model's bin widths are the spacings of the simulated line's
  // observation instants.
  const auto timing = ideal_line(36);
  TappedDelayLineSim line(timing, ideal_ff(), 1);
  const auto widths = model::effective_bin_widths(timing);
  ASSERT_EQ(widths.size(), 35u);
  for (int j = 0; j + 1 < 36; ++j) {
    const Picoseconds w = widths[static_cast<std::size_t>(j)];
    EXPECT_DOUBLE_EQ(w, 17.0);
    EXPECT_DOUBLE_EQ(w, line.observation_time(j, 1000.0) -
                            line.observation_time(j + 1, 1000.0));
  }
}

TEST(TappedDelayLine, CapturesThermometerCodeAroundEdge) {
  // Noiseless oscillator, ideal FFs: the snapshot must be a clean run of
  // values with one transition exactly where the edge sits in the line.
  auto osc = noiseless_osc();
  osc.reset(0.0);
  const Picoseconds t_clk = 10000.0;
  osc.advance_to(t_clk + 100.0);
  TappedDelayLineSim line(ideal_line(36), ideal_ff(), 2);
  const auto snap = capture(line, osc, 0, t_clk);
  ASSERT_EQ(snap.size(), 36u);
  EXPECT_LE(test::count_edges(snap), 2);
  EXPECT_FALSE(test::has_bubble(snap));
  EXPECT_EQ(line.metastable_events(), 0u);
}

TEST(TappedDelayLine, EdgePositionMatchesEdgeAge) {
  // Place an edge a known time before the sample and check the decoded tap.
  auto osc = noiseless_osc(480.0);
  osc.reset(0.0);
  // Stage 0 toggles at 480, 1920, 3360... (every 1440 ps).
  // Sample at t = 480 + 200 => the edge is 200 ps old. Tap j observes the
  // signal at t - 17*(j+1), so taps 0..10 (observing >= 493) show the
  // post-edge value and tap 11 (observing 476) still shows the old one:
  // the decoded transition sits between taps 10 and 11.
  const Picoseconds t_clk = 680.0;
  osc.advance_to(t_clk + 100.0);
  TappedDelayLineSim line(ideal_line(36), ideal_ff(), 3);
  const auto snap = capture(line, osc, 0, t_clk);
  int edge_at = -1;
  for (int j = 0; j + 1 < 36; ++j) {
    if (snap[static_cast<std::size_t>(j)] !=
        snap[static_cast<std::size_t>(j + 1)]) {
      edge_at = j;
      break;
    }
  }
  EXPECT_EQ(edge_at, 10);
  // Newest taps show the post-edge value (low), older taps pre-edge (high).
  EXPECT_FALSE(snap[0]);
  EXPECT_TRUE(snap[20]);
}

TEST(TappedDelayLine, CaptureThrowsBeyondTheHistoryWindow) {
  // A 36-tap line of 17 ps bins with ideal flip-flops reads 612 ps before
  // its clock edge. An oscillator keeping 700 ps of history at now() = 5000
  // serves an edge at 5000 (reads back to 4388 >= 4300), not one at 4800
  // (4188), whose toggles the aggregate step or pruning may have dropped.
  TappedDelayLineSim line(ideal_line(36), ideal_ff(), 5);
  EXPECT_DOUBLE_EQ(line.look_back(), 36.0 * 17.0);
  RingOscillator osc({480.0, 480.0, 480.0}, 0.0, NoiseConfig::white_only(),
                     nullptr, 1, 700.0);
  osc.reset(0.0);
  osc.advance_to(5000.0);
  std::uint64_t word = 0;
  EXPECT_THROW(line.capture_into(osc, 0, 4800.0, &word), std::logic_error);
  // The served capture reads what an oscillator keeping everything reads.
  ASSERT_NO_THROW(line.capture_into(osc, 0, 5000.0, &word));
  auto keep = noiseless_osc(480.0);
  keep.reset(0.0);
  keep.advance_to(5000.0);
  std::uint64_t expected = 0;
  line.capture_into(keep, 0, 5000.0, &expected);
  EXPECT_EQ(word, expected);
  EXPECT_LT(osc.toggle_history(0).size(), keep.toggle_history(0).size());
}

TEST(TappedDelayLine, IdealFlipFlopsReadTheLevelAtTheirInstant) {
  // No jitter and no aperture: every tap reads the oscillator level at its
  // observation instant, consumes no RNG and never goes metastable — also
  // when a tap sits exactly on a toggle. Stage 0 toggles at 480 + 1440 i;
  // t_clk = 1920 + 17 * 6 puts tap 5 exactly on the toggle at 1920.
  auto osc = noiseless_osc(480.0);
  osc.reset(0.0);
  osc.advance_to(6000.0);
  TappedDelayLineSim line(ideal_line(36), ideal_ff(), 5);
  for (const Picoseconds t_clk : {1920.0 + 17.0 * 6.0, 2300.0, 3400.5}) {
    SCOPED_TRACE(t_clk);
    std::uint64_t words[1] = {~0ULL};
    line.capture_into(osc, 0, t_clk, words);
    for (int j = 0; j < 36; ++j) {
      const bool expected =
          test::value_at(osc, 0, line.observation_time(j, t_clk));
      EXPECT_EQ(((words[0] >> j) & 1ULL) != 0, expected) << "tap " << j;
    }
    EXPECT_EQ(words[0] >> 36, 0u);
  }
  EXPECT_EQ(test::value_at(osc, 0, 1920.0), !test::value_at(osc, 0, 1919.0));
  EXPECT_EQ(line.metastable_events(), 0u);
}

TEST(TappedDelayLine, DrawsOnlyForTapsWithAToggleInReach) {
  // A flip-flop draws (jitter, metastability) only when a toggle lies
  // within reach = aperture/2 + kPolarGaussianBound * sigma_dyn of its
  // nominal instant; every other tap reads the level there. A line with
  // no toggle in reach of its whole span takes a one-level fill instead
  // of the per-tap walk, and the two must agree. The clock sweeps past a
  // toggle of stage 0 on a line whose bins are narrower than 2 * reach
  // (each capture is quiet or draws) and on one whose bins are wider (a
  // toggle midway between two taps is out of everyone's reach, so the
  // per-tap walk runs without drawing).
  const fpga::FlipFlopTimingSpec ff;  // nominal: 10 ps aperture, 0.8 ps
  const Picoseconds reach = ff.aperture_ps / 2.0 +
                            common::kPolarGaussianBound *
                                ff.dynamic_jitter_sigma_ps;
  auto osc = noiseless_osc(480.0);  // stage 0 toggles at 480 + 1440 i
  osc.reset(0.0);
  osc.advance_to(8000.0);
  const auto& toggles = osc.toggle_history(0);
  for (const auto& [m, bin] : {std::pair{36, 17.0}, std::pair{12, 40.0}}) {
    SCOPED_TRACE(bin);
    const auto timing = ideal_line(m, bin);
    // Whether a capture drew: 16 probe captures with tap 0 right on the
    // toggle at 4800 are fair coins, so they come out differently after
    // any extra draw.
    const auto probes = [&](TappedDelayLineSim& line) {
      const Picoseconds t_probe = 4800.0 + bin - line.static_offset(0);
      std::vector<std::uint64_t> words(16);
      for (auto& w : words) line.capture_into(osc, 0, t_probe, &w);
      return words;
    };
    TappedDelayLineSim twin(timing, ff, 9);
    const auto undrawn = probes(twin);
    int quiet = 0;
    int walked = 0;
    int drew = 0;
    for (Picoseconds t_clk = 4500.0; t_clk < 5600.0; t_clk += 0.37) {
      TappedDelayLineSim line(timing, ff, 9);
      std::vector<Picoseconds> s0(static_cast<std::size_t>(m));
      std::vector<bool> in_reach(s0.size());
      bool ambiguous = false;
      for (int j = 0; j < m; ++j) {
        const auto k = static_cast<std::size_t>(j);
        s0[k] = line.observation_time(j, t_clk) + line.static_offset(j);
        Picoseconds d = std::numeric_limits<Picoseconds>::infinity();
        for (const Picoseconds q : toggles) {
          d = std::min(d, std::fabs(q - s0[k]));
        }
        in_reach[k] = d <= reach;
        ambiguous = ambiguous || std::fabs(d - reach) < 1e-6;
      }
      if (ambiguous) continue;
      std::uint64_t word = ~0ULL;
      line.capture_into(osc, 0, t_clk, &word);
      EXPECT_EQ(word >> m, 0u);
      bool any_in_reach = false;
      for (int j = 0; j < m; ++j) {
        const auto k = static_cast<std::size_t>(j);
        any_in_reach = any_in_reach || in_reach[k];
        if (in_reach[k]) continue;
        EXPECT_EQ(((word >> j) & 1ULL) != 0, test::value_at(osc, 0, s0[k]))
            << "t_clk " << t_clk << " tap " << j;
      }
      EXPECT_EQ(probes(line) != undrawn, any_in_reach) << "t_clk " << t_clk;
      const auto [lo, hi] = std::minmax_element(s0.begin(), s0.end());
      const bool span_quiet =
          std::none_of(toggles.begin(), toggles.end(), [&](Picoseconds q) {
            return q >= *lo - reach && q <= *hi + reach;
          });
      if (any_in_reach) {
        ++drew;
      } else if (span_quiet) {
        ++quiet;
      } else {
        ++walked;
      }
    }
    EXPECT_GT(quiet, 0);
    EXPECT_GT(drew, 0);
    if (bin > 2.0 * reach) {
      EXPECT_GT(walked, 0);
    }
  }
}

TEST(TappedDelayLine, MetastabilityTriggersNearEdge) {
  fpga::FlipFlopTimingSpec ff = ideal_ff();
  ff.aperture_ps = 10.0;
  ff.resolution_tau_ps = 5.0;
  auto osc = noiseless_osc();
  osc.reset(0.0);
  TappedDelayLineSim line(ideal_line(36), ff, 4);
  int meta_before = 0;
  for (int rep = 0; rep < 200; ++rep) {
    const Picoseconds t_clk = 700.0 + rep * 1440.0;  // same phase each time
    osc.advance_to(t_clk + 100.0);
    (void)capture(line, osc, 0, t_clk);
    (void)meta_before;
  }
  EXPECT_GT(line.metastable_events(), 0u);
  EXPECT_LT(line.metastable_events(), 200u * 3u);
}

TEST(TappedDelayLine, StaticOffsetsAreDeterministicPerSeed) {
  fpga::FlipFlopTimingSpec ff = ideal_ff();
  ff.static_offset_sigma_ps = 2.0;
  TappedDelayLineSim a(ideal_line(16), ff, 42);
  TappedDelayLineSim b(ideal_line(16), ff, 42);
  TappedDelayLineSim c(ideal_line(16), ff, 43);
  bool any_diff = false;
  for (int j = 0; j < 16; ++j) {
    EXPECT_DOUBLE_EQ(a.static_offset(j), b.static_offset(j));
    if (a.static_offset(j) != c.static_offset(j)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
  EXPECT_THROW(a.static_offset(16), std::out_of_range);
}

// The Figure 4 classifier on packed captures built from '0'/'1' strings
// (tap 0 first). The m = 70 lines put edges and bubbles on the 63/64 word
// seam, where the word-level scan reads its neighbours across two words.

TEST(SnapshotHelpers, CountEdges) {
  using S = SnapshotClass;
  EXPECT_EQ(classify({"11100"}), S::kRegular);      // one edge
  EXPECT_EQ(classify({"000"}), S::kNoEdge);
  EXPECT_EQ(classify({"110011"}), S::kDoubleEdge);  // two edges
  EXPECT_EQ(classify({"1"}), S::kNoEdge);           // no tap pair
  EXPECT_EQ(classify({""}), S::kNoEdge);
  // Edges on and across the seam of a 70-tap line.
  std::string seam = taps(70, '1');
  for (std::size_t j = 64; j < seam.size(); ++j) seam[j] = '0';
  EXPECT_EQ(classify({seam}), S::kRegular);  // taps 63 | 64
  std::string across = seam;
  for (std::size_t j = 60; j < 64; ++j) across[j] = '0';
  for (std::size_t j = 66; j < across.size(); ++j) across[j] = '1';
  EXPECT_EQ(classify({across}), S::kDoubleEdge);  // taps 59 | 60, 65 | 66
  // Edges are counted over all lines together.
  EXPECT_EQ(classify({"1100", "0011"}), S::kDoubleEdge);
}

TEST(SnapshotHelpers, HasBubble) {
  using S = SnapshotClass;
  EXPECT_NE(classify({"1100"}), S::kBubbles);
  EXPECT_EQ(classify({"11011"}), S::kBubbles);   // isolated 0
  EXPECT_EQ(classify({"0100"}), S::kBubbles);    // isolated 1
  EXPECT_EQ(classify({"1001"}), S::kDoubleEdge);  // 2-wide gap, not a bubble
  EXPECT_EQ(classify({"10"}), S::kRegular);      // too short for a bubble
  // Interior taps on either side of the seam, and the last interior tap,
  // are bubbles; the two end taps have one neighbour and cannot be.
  for (int j : {1, 62, 63, 64, 65, 68}) {
    EXPECT_EQ(classify({taps(70, '1', {j})}), S::kBubbles) << "tap " << j;
  }
  EXPECT_EQ(classify({taps(70, '0', {0})}), S::kRegular);
  EXPECT_EQ(classify({taps(70, '0', {69})}), S::kRegular);
}

TEST(SnapshotHelpers, ClassifySnapshots) {
  using S = SnapshotClass;
  EXPECT_EQ(classify({"1100", "0000"}), S::kRegular);
  EXPECT_EQ(classify({"1100", "0011"}), S::kDoubleEdge);
  EXPECT_EQ(classify({"1011", "0000"}), S::kBubbles);
  EXPECT_EQ(classify({"1111", "0000"}), S::kNoEdge);
  // A bubble in any line wins over the edge count.
  EXPECT_EQ(classify({"1100", "0011", taps(4, '0', {2})}), S::kBubbles);
  // Random multi-line captures of 3, 36 and 70 taps against the
  // tap-at-a-time oracle. A few flips per line keep all four classes
  // common.
  common::Xoshiro256StarStar rng(17);
  int seen[4] = {};
  for (const int m : {3, 36, 70}) {
    for (int trial = 0; trial < 2000; ++trial) {
      std::vector<std::string> lines;
      for (int i = 0; i < 3; ++i) {
        std::string s = taps(m, (rng.next() & 1) != 0 ? '1' : '0');
        const auto flips = rng.next() % 3;
        for (std::uint64_t f = 0; f < flips; ++f) {
          const auto j = static_cast<std::size_t>(rng.next() % s.size());
          s[j] = s[j] == '1' ? '0' : '1';
        }
        lines.push_back(s);
      }
      const auto pc = test::packed_capture(lines);
      const S expected = test::classify_snapshots(test::unpack(pc));
      ASSERT_EQ(classify_packed(pc), expected) << lines[0] << " " << lines[1]
                                               << " " << lines[2];
      ++seen[static_cast<int>(expected)];
    }
  }
  for (int c = 0; c < 4; ++c) EXPECT_GT(seen[c], 0) << "class " << c;
}

}  // namespace
}  // namespace trng::sim
