// TappedDelayLineSim::capture_into against the per-tap walk of
// tests/capture_oracle.hpp, bit for bit.
//
// Both are built from the same timing, flip-flop spec and seed, and read
// the same oscillator trajectory. Every capture must agree in all output
// words (tail bits included) and in the metastable-event count; a sequence
// of captures checks the generator state too, since each capture draws
// from where the previous one left the stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "capture_oracle.hpp"
#include "core/config.hpp"
#include "fpga/fabric.hpp"
#include "fpga/placement.hpp"
#include "sim/delay_line.hpp"
#include "sim/sampler.hpp"

namespace trng::sim {
namespace {

/// m taps of exactly `bin` ps, zero skew.
fpga::ElaboratedDelayLine uniform_line(int m, Picoseconds bin = 17.0) {
  fpga::ElaboratedDelayLine line;
  for (int j = 0; j < m; ++j) {
    line.tap_delay.push_back(bin);
    line.cumulative_delay.push_back(bin * (j + 1));
    line.ff_clock_skew.push_back(0.0);
  }
  return line;
}

/// What a sweep saw, so each test can show it reached its case.
struct SweepStats {
  std::uint64_t captures = 0;
  std::uint64_t metastable = 0;
  int max_toggles_in_span = 0;  ///< toggles among the nominal instants
};

/// Captures every stage of `osc` with `line` and `oracle` at `count` clock
/// edges t0, t0 + dt, ..., advancing the oscillator as the sampler does,
/// and requires the two to agree bit for bit.
SweepStats sweep(TappedDelayLineSim& line, test::CaptureOracle& oracle,
                 RingOscillator& osc, Picoseconds t0, Picoseconds dt,
                 int count) {
  SweepStats stats;
  const auto nw = static_cast<std::size_t>((line.taps() + 63) / 64);
  Picoseconds lo = line.observation_time(0, 0.0) + line.static_offset(0);
  Picoseconds hi = lo;
  for (int j = 1; j < line.taps(); ++j) {
    const Picoseconds o = line.observation_time(j, 0.0) + line.static_offset(j);
    lo = std::min(lo, o);
    hi = std::max(hi, o);
  }
  for (int c = 0; c < count; ++c) {
    const Picoseconds t_clk = t0 + dt * c;
    osc.advance_to(t_clk + kCaptureLookaheadPs);
    for (int stage = 0; stage < osc.stages(); ++stage) {
      // Different garbage on each side: every word must be overwritten.
      std::vector<std::uint64_t> got(nw, 0xA5A5A5A5A5A5A5A5ULL);
      std::vector<std::uint64_t> want(nw, 0x5A5A5A5A5A5A5A5AULL);
      line.capture_into(osc, stage, t_clk, got.data());
      oracle.capture_into(osc, stage, t_clk, want.data());
      EXPECT_EQ(got, want) << "t_clk " << t_clk << " stage " << stage;
      EXPECT_EQ(line.metastable_events(), oracle.metastable_events())
          << "t_clk " << t_clk << " stage " << stage;
      if (got != want) return stats;
      const auto& h = osc.toggle_history(stage);
      const auto in_span =
          std::count_if(h.begin(), h.end(), [&](Picoseconds q) {
            return q >= t_clk + lo && q <= t_clk + hi;
          });
      stats.max_toggles_in_span =
          std::max(stats.max_toggles_in_span, static_cast<int>(in_span));
      ++stats.captures;
    }
  }
  stats.metastable = line.metastable_events();
  return stats;
}

RingOscillator ring(Picoseconds d0, Picoseconds white_sigma,
                    const TappedDelayLineSim& line, std::uint64_t seed) {
  return RingOscillator({d0, d0, d0}, white_sigma, NoiseConfig::white_only(),
                        nullptr, seed,
                        capture_history_window(line.look_back()));
}

TEST(CaptureBitExact, SampleControllerLinesOfDies1000And1001) {
  // The paper's design on the two dies the pool benchmark runs (restart
  // mode, k = 1, m = 36, full noise taxonomy), and free-running sampling,
  // which sweeps every edge phase. The oracle lines take the controller's
  // line seeds, (seed ^ 0x11E5) + i, so they must reproduce its capture.
  for (const std::uint64_t die : {1000u, 1001u}) {
    for (const SamplingMode mode :
         {SamplingMode::kRestart, SamplingMode::kFreeRunning}) {
      SCOPED_TRACE(die);
      SCOPED_TRACE(static_cast<int>(mode));
      const fpga::Fabric fabric(fpga::DeviceGeometry{}, die);
      core::DesignParams p;
      p.mode = mode;
      const auto plan =
          fpga::TrngFloorplan::canonical(fabric.geometry(), p.n, p.m, 0, 17);
      const auto elaborated = fabric.elaborate(plan, p.k);
      const auto& ff = fabric.spec().flip_flop;
      const std::uint64_t seed = 11;
      SampleController controller(elaborated, ff, NoiseConfig{}, seed, mode,
                                  constants::kSystemClockPeriodPs);
      std::vector<test::CaptureOracle> oracles;
      std::uint64_t line_seed = seed ^ 0x11E5ULL;
      for (const auto& timing : elaborated.lines) {
        oracles.emplace_back(timing, ff, line_seed++);
      }
      PackedCapture got;
      std::vector<std::uint64_t> want;
      constexpr int kConversions = 20000;
      for (int i = 0; i < kConversions; ++i) {
        controller.next_capture_into(p.accumulation_cycles, got);
        want.assign(static_cast<std::size_t>(got.words_per_line), 0);
        for (int l = 0; l < got.lines; ++l) {
          oracles[static_cast<std::size_t>(l)].capture_into(
              controller.oscillator(), l, got.sample_time_ps, want.data());
          ASSERT_TRUE(std::equal(want.begin(), want.end(), got.line(l)))
              << "conversion " << i << " line " << l;
        }
      }
      std::uint64_t oracle_metastable = 0;
      for (const auto& o : oracles) oracle_metastable += o.metastable_events();
      EXPECT_EQ(controller.metastable_events(), oracle_metastable);
      EXPECT_GT(oracle_metastable, 0u);
    }
  }
}

TEST(CaptureBitExact, StaticOffsetsReorderTheTaps) {
  // 30 ps static offsets on 17 ps bins: the taps' instants are far from
  // monotone in j, so the sorted order differs from the tap order.
  fpga::FlipFlopTimingSpec ff;
  ff.static_offset_sigma_ps = 30.0;
  const auto timing = uniform_line(36);
  TappedDelayLineSim line(timing, ff, 31);
  test::CaptureOracle oracle(timing, ff, 31);
  int inversions = 0;
  for (int j = 0; j + 1 < 36; ++j) {
    EXPECT_EQ(line.static_offset(j), oracle.static_offset(j));
    inversions += line.observation_time(j, 0.0) + line.static_offset(j) <
                  line.observation_time(j + 1, 0.0) + line.static_offset(j + 1);
  }
  EXPECT_GE(inversions, 5);
  auto osc = ring(480.0, 2.0, line, 32);
  osc.reset(0.0);
  const SweepStats stats = sweep(line, oracle, osc, 2000.0, 0.37, 8000);
  EXPECT_EQ(stats.captures, 3u * 8000u);
  EXPECT_GT(stats.metastable, 0u);
}

TEST(CaptureBitExact, TwoWordLineWithAZeroTail) {
  // m = 100: taps 64..99 in the second word, whose top 28 bits stay zero.
  const fpga::FlipFlopTimingSpec ff;
  const auto timing = uniform_line(100);
  TappedDelayLineSim line(timing, ff, 41);
  test::CaptureOracle oracle(timing, ff, 41);
  auto osc = ring(480.0, 2.0, line, 42);
  osc.reset(0.0);
  const SweepStats stats = sweep(line, oracle, osc, 3000.0, 0.53, 6000);
  EXPECT_EQ(stats.captures, 3u * 6000u);
  EXPECT_GT(stats.metastable, 0u);
  EXPECT_GE(stats.max_toggles_in_span, 2);
  std::vector<std::uint64_t> words(2, ~0ULL);
  line.capture_into(osc, 0, 3000.0 + 0.53 * 5999, words.data());
  EXPECT_EQ(words[1] >> 36, 0u);
}

TEST(CaptureBitExact, IdealFlipFlopsNeverDraw) {
  // No aperture and no jitter: nothing draws, also with a tap exactly on a
  // toggle of the noiseless ring (stage 0 toggles at 480 + 1440 i, and
  // t_clk = 1920 + 17 * 6 puts tap 5 on the one at 1920).
  fpga::FlipFlopTimingSpec ff;
  ff.aperture_ps = 0.0;
  ff.static_offset_sigma_ps = 0.0;
  ff.dynamic_jitter_sigma_ps = 0.0;
  const auto timing = uniform_line(36);
  TappedDelayLineSim line(timing, ff, 51);
  test::CaptureOracle oracle(timing, ff, 51);
  auto osc = ring(480.0, 0.0, line, 52);
  osc.reset(0.0);
  (void)sweep(line, oracle, osc, 1920.0 + 17.0 * 6.0, 0.0, 1);
  const SweepStats stats = sweep(line, oracle, osc, 2100.0, 0.37, 8000);
  EXPECT_EQ(stats.captures, 3u * 8000u);
  EXPECT_EQ(stats.metastable, 0u);
}

TEST(CaptureBitExact, FastRingPutsSeveralTogglesInOneLine) {
  // 60 ps stages: each stage toggles about every 180 ps, so a 612 ps line
  // holds three or four toggles at once.
  const fpga::FlipFlopTimingSpec ff;
  const auto timing = uniform_line(36);
  TappedDelayLineSim line(timing, ff, 61);
  test::CaptureOracle oracle(timing, ff, 61);
  auto osc = ring(60.0, 2.0, line, 62);
  osc.reset(0.0);
  const SweepStats stats = sweep(line, oracle, osc, 1000.0, 0.37, 8000);
  EXPECT_EQ(stats.captures, 3u * 8000u);
  EXPECT_GE(stats.max_toggles_in_span, 3);
  EXPECT_GT(stats.metastable, 0u);
}

TEST(CaptureBitExact, ClockEdgesNearATerasecond) {
  // At t_clk ~ 1e12 ps an ulp of the clock is about 1e-4 ps, so the
  // rounding of each tap's instant is no longer negligible against the
  // toggles' spacing from it: the rank must leave those taps to the body.
  const fpga::FlipFlopTimingSpec ff;
  const auto timing = uniform_line(36);
  TappedDelayLineSim line(timing, ff, 71);
  test::CaptureOracle oracle(timing, ff, 71);
  auto osc = ring(480.0, 2.0, line, 72);
  constexpr Picoseconds kT0 = 1.0e12;
  osc.reset(kT0);
  const SweepStats stats = sweep(line, oracle, osc, kT0 + 2000.0, 0.37, 8000);
  EXPECT_EQ(stats.captures, 3u * 8000u);
  EXPECT_GT(stats.metastable, 0u);

  // Ideal flip-flops have no reach, so only the rounding margin decides
  // which taps the body resolves. Each tap's instant is stepped across a
  // toggle of the noiseless ring one ulp of the clock at a time, which
  // lands some rounded instants exactly on the toggle. Bins of 17.0001 ps
  // keep the delays off the clock's ulp grid, so the instants do round.
  fpga::FlipFlopTimingSpec ideal = ff;
  ideal.aperture_ps = 0.0;
  ideal.dynamic_jitter_sigma_ps = 0.0;
  const auto off_grid = uniform_line(36, 17.0001);
  TappedDelayLineSim ideal_line(off_grid, ideal, 73);
  test::CaptureOracle ideal_oracle(off_grid, ideal, 73);
  auto noiseless = ring(480.0, 0.0, ideal_line, 74);
  noiseless.reset(kT0);
  noiseless.advance_to(kT0 + 2000.0);
  const auto& h = noiseless.toggle_history(0);
  const Picoseconds toggle =
      *std::min_element(h.begin(), h.end(), [&](Picoseconds a, Picoseconds b) {
        return std::fabs(a - (kT0 + 1920.0)) < std::fabs(b - (kT0 + 1920.0));
      });
  const Picoseconds ulp = std::nextafter(kT0, 2.0 * kT0) - kT0;
  std::vector<Picoseconds> clocks;
  for (int j = 0; j < 36; ++j) {
    const Picoseconds offset =
        ideal_line.observation_time(j, 0.0) + ideal_line.static_offset(j);
    for (int k = -32; k <= 32; ++k) clocks.push_back(toggle - offset + k * ulp);
  }
  std::sort(clocks.begin(), clocks.end());
  int on_toggle = 0;
  for (const Picoseconds t_clk : clocks) {
    (void)sweep(ideal_line, ideal_oracle, noiseless, t_clk, 0.0, 1);
    for (int j = 0; j < 36; ++j) {
      on_toggle += ideal_line.observation_time(j, t_clk) +
                       ideal_line.static_offset(j) == toggle;
    }
  }
  EXPECT_GT(on_toggle, 0);
  EXPECT_EQ(ideal_line.metastable_events(), 0u);
}

}  // namespace
}  // namespace trng::sim
