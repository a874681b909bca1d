// Unit tests for the tapped-delay-line (TDC) capture simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fpga/fabric.hpp"
#include "sim/delay_line.hpp"

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

RingOscillator noiseless_osc(Picoseconds d0 = 480.0) {
  return RingOscillator({d0, d0, d0}, 0.0, NoiseConfig::white_only(), nullptr,
                        1);
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
  TappedDelayLineSim line(ideal_line(36), ideal_ff(), 1);
  const auto widths = line.effective_bin_widths();
  ASSERT_EQ(widths.size(), 35u);
  for (Picoseconds w : widths) EXPECT_DOUBLE_EQ(w, 17.0);
}

TEST(TappedDelayLine, CapturesThermometerCodeAroundEdge) {
  // Noiseless oscillator, ideal FFs: the snapshot must be a clean run of
  // values with one transition exactly where the edge sits in the line.
  auto osc = noiseless_osc();
  osc.reset(0.0);
  const Picoseconds t_clk = 10000.0;
  osc.advance_to(t_clk + 100.0);
  TappedDelayLineSim line(ideal_line(36), ideal_ff(), 2);
  const auto snap = line.capture(osc, 0, t_clk);
  ASSERT_EQ(snap.size(), 36u);
  EXPECT_LE(count_edges(snap), 2);
  EXPECT_FALSE(has_bubble(snap));
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
  const auto snap = line.capture(osc, 0, t_clk);
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
    const auto snap = line.capture(osc, 0, t_clk);
    for (int j = 0; j < 36; ++j) {
      const bool expected = osc.value_at(0, line.observation_time(j, t_clk));
      EXPECT_EQ(((words[0] >> j) & 1ULL) != 0, expected) << "tap " << j;
      EXPECT_EQ(snap[static_cast<std::size_t>(j)], expected) << "tap " << j;
    }
    EXPECT_EQ(words[0] >> 36, 0u);
  }
  EXPECT_EQ(osc.value_at(0, 1920.0), !osc.value_at(0, 1919.0));
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
        EXPECT_EQ(((word >> j) & 1ULL) != 0, osc.value_at(0, s0[k]))
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
    (void)line.capture(osc, 0, t_clk);
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

TEST(SnapshotHelpers, CountEdges) {
  EXPECT_EQ(count_edges({1, 1, 1, 0, 0}), 1);
  EXPECT_EQ(count_edges({0, 0, 0}), 0);
  EXPECT_EQ(count_edges({1, 0, 1, 0}), 3);
  EXPECT_EQ(count_edges({}), 0);
  EXPECT_EQ(count_edges({1}), 0);
}

TEST(SnapshotHelpers, HasBubble) {
  EXPECT_FALSE(has_bubble({1, 1, 0, 0}));
  EXPECT_TRUE(has_bubble({1, 1, 0, 1, 1}));   // isolated 0
  EXPECT_TRUE(has_bubble({0, 1, 0, 0}));      // isolated 1
  EXPECT_FALSE(has_bubble({1, 0, 0, 1}));     // 2-wide gap, not a bubble
  EXPECT_FALSE(has_bubble({1, 0}));           // too short
}

TEST(SnapshotHelpers, ClassifySnapshots) {
  using S = SnapshotClass;
  EXPECT_EQ(classify_snapshots({{1, 1, 0, 0}, {0, 0, 0, 0}}), S::kRegular);
  EXPECT_EQ(classify_snapshots({{1, 1, 0, 0}, {0, 0, 1, 1}}), S::kDoubleEdge);
  EXPECT_EQ(classify_snapshots({{1, 0, 1, 1}, {0, 0, 0, 0}}), S::kBubbles);
  EXPECT_EQ(classify_snapshots({{1, 1, 1, 1}, {0, 0, 0, 0}}), S::kNoEdge);
}

}  // namespace
}  // namespace trng::sim
