#include "model/platform_measurement.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/stats.hpp"
#include "sim/delay_line.hpp"
#include "sim/ring_oscillator.hpp"

namespace trng::model {

namespace {

constexpr double kTwoPi = 6.283185307179586;

/// Captures `stage` of `osc` into a packed snapshot of `line`.
std::vector<std::uint64_t> capture(sim::TappedDelayLineSim& line,
                                   const sim::RingOscillator& osc, int stage,
                                   Picoseconds t_clk) {
  std::vector<std::uint64_t> words(
      (static_cast<std::size_t>(line.taps()) + 63) / 64);
  line.capture_into(osc, stage, t_clk, words.data());
  return words;
}

/// Transition positions of a packed snapshot of `taps` bits, in tap
/// order: j is listed when taps j and j + 1 differ.
std::vector<int> edge_positions(const std::vector<std::uint64_t>& snap,
                                int taps) {
  std::vector<int> positions;
  for (std::size_t w = 0; w < snap.size(); ++w) {
    const std::uint64_t next0 =
        w + 1 < snap.size() ? (snap[w + 1] & 1ULL) : 0ULL;
    // Bit b marks a transition between taps 64w+b and 64w+b+1.
    for (std::uint64_t e = snap[w] ^ ((snap[w] >> 1) | (next0 << 63)); e != 0;
         e &= e - 1) {
      const int j = static_cast<int>(w * 64) + std::countr_zero(e);
      if (j + 1 >= taps) break;
      positions.push_back(j);
    }
  }
  return positions;
}

}  // namespace

PlatformMeasurement::PlatformMeasurement(const fpga::Fabric& fabric,
                                         std::uint64_t seed)
    : fabric_(fabric), seed_(seed) {}

Picoseconds PlatformMeasurement::measure_lut_delay(
    int ro_stages, Picoseconds duration_ps) const {
  if (ro_stages < 1 || !(duration_ps > 0.0)) {
    throw std::invalid_argument("measure_lut_delay: bad arguments");
  }
  // Any ring oscillator works: the circulating edge performs one stage
  // traversal (= one counted transition) every d0 on average, regardless
  // of n, so d0 = window / transitions.
  std::vector<Picoseconds> delays;
  for (int s = 0; s < ro_stages; ++s) {
    delays.push_back(
        fabric_.lut_delay(fpga::SliceCoord{0, 16 + s}, s % 4));
  }
  sim::NoiseConfig noise;  // full taxonomy: a real measurement sees it all
  sim::SupplyNoise supply(noise, seed_ ^ 0xD0ULL);
  sim::RingOscillator osc(delays, fabric_.spec().lut.thermal_sigma_ps, noise,
                          &supply, seed_ ^ 0xD01ULL);
  osc.reset(0.0);
  osc.advance_to(duration_ps);
  if (osc.transition_count() == 0) {
    throw std::runtime_error("measure_lut_delay: oscillator did not run");
  }
  return duration_ps / static_cast<double>(osc.transition_count());
}

Picoseconds PlatformMeasurement::measure_t_step(int line_carry4s,
                                                int captures) const {
  if (line_carry4s < 2 || captures < 1) {
    throw std::invalid_argument("measure_t_step: bad arguments");
  }
  // Single-LUT oscillator (half-period = d0) captured in a long chain: the
  // chain must span more than one half-period so consecutive edges appear
  // in the same snapshot.
  fpga::TrngFloorplan fp;
  fp.lines.push_back(fpga::DelayLinePlacement{0, 17, line_carry4s});
  fp.ro_stages.push_back(fpga::RoStagePlacement{fpga::SliceCoord{0, 16}, 0});
  const auto elaborated = fabric_.elaborate(fp);

  // Half-period of this specific oscillator via transition counting. The
  // long line reads further back than the oscillator's default window.
  sim::TappedDelayLineSim line(elaborated.lines[0], fabric_.spec().flip_flop,
                               seed_ ^ 0x7E92ULL);
  sim::NoiseConfig noise;
  sim::SupplyNoise supply(noise, seed_ ^ 0x7E9ULL);
  sim::RingOscillator osc(
      elaborated.ro_stage_delay, elaborated.stage_white_sigma_ps, noise,
      &supply, seed_ ^ 0x7E91ULL,
      sim::capture_history_window(line.look_back()));
  osc.reset(0.0);
  const Picoseconds count_window = 1.0e6;
  osc.advance_to(count_window);
  const Picoseconds half_period =
      count_window / static_cast<double>(osc.transition_count());

  if (elaborated.lines[0].total_delay() < 1.5 * half_period) {
    throw std::invalid_argument(
        "measure_t_step: chain shorter than 1.5 half-periods; increase "
        "line_carry4s");
  }

  // Capture snapshots and average the tap distance between consecutive
  // edges. Spacings of one or two taps are metastability bubbles, not
  // half-periods; anything below a quarter of the expected spacing is
  // discarded.
  common::RunningStats spacing;
  Picoseconds t = count_window;
  const double min_spacing =
      0.25 * half_period / fabric_.spec().carry4.nominal_tap_delay_ps;
  for (int c = 0; c < captures; ++c) {
    t += 3.0 * half_period + 13.7;  // stride avoids phase-locking to HP
    osc.advance_to(t + sim::kCaptureLookaheadPs);
    int prev = -1;
    for (const int j : edge_positions(capture(line, osc, 0, t), line.taps())) {
      if (prev >= 0) {
        const double d = static_cast<double>(j - prev);
        if (d >= min_spacing) spacing.add(d);
      }
      prev = j;
    }
  }
  if (spacing.count() < 10) {
    throw std::runtime_error("measure_t_step: too few edge pairs captured");
  }
  return half_period / spacing.mean();
}

Picoseconds PlatformMeasurement::measure_jitter_sigma(
    int reps, Picoseconds t_acc_ps) const {
  if (reps < 10 || !(t_acc_ps > 0.0)) {
    throw std::invalid_argument("measure_jitter_sigma: bad arguments");
  }
  const int kStages = 3;
  // Chain depth must exceed one half-period (~3 * 480 ps) so an edge is
  // always captured: 22 CARRY4 = 88 taps ~= 1.5 kps.
  const int kCarry4s = 22;

  fpga::TrngFloorplan fp;
  fp.lines.push_back(fpga::DelayLinePlacement{0, 17, kCarry4s});
  fp.lines.push_back(fpga::DelayLinePlacement{2, 17, kCarry4s});
  fp.ro_stages.push_back(fpga::RoStagePlacement{fpga::SliceCoord{0, 16}, 0});
  fp.ro_stages.push_back(fpga::RoStagePlacement{fpga::SliceCoord{2, 16}, 0});
  const auto elaborated = fabric_.elaborate(fp);

  // Two *adjacent, nominally identical* oscillators sharing the global
  // supply noise (that is the point of the differential method).
  auto stage_delays = [&](int col) {
    std::vector<Picoseconds> d;
    for (int s = 0; s < kStages; ++s) {
      d.push_back(fabric_.lut_delay(fpga::SliceCoord{col, 14 + s}, s));
    }
    return d;
  };
  sim::TappedDelayLineSim line_a(elaborated.lines[0], fabric_.spec().flip_flop,
                                 seed_ ^ 0x51CULL);
  sim::TappedDelayLineSim line_b(elaborated.lines[1], fabric_.spec().flip_flop,
                                 seed_ ^ 0x51DULL);
  const Picoseconds window = sim::capture_history_window(
      std::max(line_a.look_back(), line_b.look_back()));
  sim::NoiseConfig noise;  // full taxonomy incl. supply + flicker
  sim::SupplyNoise supply(noise, seed_ ^ 0x51ULL);
  sim::RingOscillator osc_a(stage_delays(0), fabric_.spec().lut.thermal_sigma_ps,
                            noise, &supply, seed_ ^ 0x51AULL, window);
  sim::RingOscillator osc_b(stage_delays(2), fabric_.spec().lut.thermal_sigma_ps,
                            noise, &supply, seed_ ^ 0x51BULL, window);

  const Picoseconds half_period_a = osc_a.nominal_half_period();
  const Picoseconds half_period_b = osc_b.nominal_half_period();
  const Picoseconds half_period = 0.5 * (half_period_a + half_period_b);

  // Collect the edge-age difference per repetition; the deterministic part
  // (mismatch between the two oscillators) is removed by the statistics,
  // wrap-around by circular averaging.
  std::vector<double> diffs;
  diffs.reserve(static_cast<std::size_t>(reps));
  Picoseconds t0 = 0.0;
  for (int r = 0; r < reps; ++r) {
    osc_a.reset(t0);
    osc_b.reset(t0);
    const Picoseconds ts = t0 + t_acc_ps;
    // The shared supply answers queries up to two 1 us walk steps behind
    // its newest one, so the pair advances in lock-step strides short
    // enough that neither oscillator lags the other by that much; windows
    // up to about one stride run as one advance each.
    constexpr Picoseconds kStride = 1.5e6;
    for (Picoseconds t = t0 + kStride; t < ts + sim::kCaptureLookaheadPs;
         t += kStride) {
      osc_a.advance_to(t);
      osc_b.advance_to(t);
    }
    osc_a.advance_to(ts + sim::kCaptureLookaheadPs);
    osc_b.advance_to(ts + sim::kCaptureLookaheadPs);
    // First edge of each line; an edge-free capture is skipped.
    const auto edges_a =
        edge_positions(capture(line_a, osc_a, kStages - 1, ts), line_a.taps());
    const auto edges_b =
        edge_positions(capture(line_b, osc_b, kStages - 1, ts), line_b.taps());
    if (!edges_a.empty() && !edges_b.empty()) {
      const int pa = edges_a.front();
      const int pb = edges_b.front();
      const double age_a =
          elaborated.lines[0].cumulative_delay[static_cast<std::size_t>(pa)];
      const double age_b =
          elaborated.lines[1].cumulative_delay[static_cast<std::size_t>(pb)];
      diffs.push_back(age_a - age_b);
    }
    t0 = ts + constants::kSystemClockPeriodPs;
  }
  if (diffs.size() < 10) {
    throw std::runtime_error("measure_jitter_sigma: too few captures");
  }

  // Circular mean over the half-period torus, then wrapped deviations.
  double sx = 0.0, sy = 0.0;
  for (double d : diffs) {
    sx += std::cos(kTwoPi * d / half_period);
    sy += std::sin(kTwoPi * d / half_period);
  }
  const double center = std::atan2(sy, sx) / kTwoPi * half_period;
  common::RunningStats dev;
  for (double d : diffs) {
    double w = std::fmod(d - center, half_period);
    if (w > half_period / 2.0) w -= half_period;
    if (w < -half_period / 2.0) w += half_period;
    dev.add(w);
  }

  // std(diff) = sqrt(2) * sigma_acc; invert Eq. 1 with the measured d0.
  const Picoseconds d0 = half_period / static_cast<double>(kStages);
  const double sigma_acc_meas = dev.stddev() / std::sqrt(2.0);
  return sigma_acc_meas * std::sqrt(d0 / t_acc_ps);
}

core::PlatformParams PlatformMeasurement::measure_all() const {
  core::PlatformParams p;
  p.d0_lut_ps = measure_lut_delay();
  p.t_step_ps = measure_t_step();
  p.sigma_lut_ps = measure_jitter_sigma();
  p.f_clk_hz = constants::kSystemClockHz;
  return p;
}

}  // namespace trng::model
