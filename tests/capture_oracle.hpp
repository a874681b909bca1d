// The TDC capture written as a per-tap walk, used only by tests.
//
// sim::TappedDelayLineSim::capture_into ranks each toggle near the line
// among the taps' sorted nominal offsets, flips the taps before it with one
// prefix mask, and runs the flip-flop body only for the taps within reach of
// a toggle. This oracle walks all taps in index order instead: every tap
// locates its nominal instant among the toggles, and the taps with a toggle
// within reach draw their jitter and metastability outcome. It takes the
// same constructor arguments and draws the same static offsets from the
// same seed, so the two agree bit for bit: in the captured words, in the
// metastable-event count and in the generator state a later capture reads.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fpga/fabric.hpp"
#include "fpga/primitives.hpp"
#include "sim/ring_oscillator.hpp"

namespace trng::test {

class CaptureOracle {
 public:
  CaptureOracle(const fpga::ElaboratedDelayLine& timing,
                const fpga::FlipFlopTimingSpec& ff_spec, std::uint64_t seed)
      : timing_(timing), ff_spec_(ff_spec), rng_(seed ^ 0x7D1ULL) {
    for (std::size_t j = 0; j < timing_.tap_delay.size(); ++j) {
      static_offset_.push_back(ff_spec_.static_offset_sigma_ps *
                               rng_.next_gaussian());
    }
  }

  int taps() const { return static_cast<int>(timing_.tap_delay.size()); }

  Picoseconds static_offset(int tap) const {
    return static_offset_[static_cast<std::size_t>(tap)];
  }

  std::uint64_t metastable_events() const { return metastable_events_; }

  /// capture_into's contract: (taps() + 63) / 64 words, tail bits zero.
  void capture_into(const sim::RingOscillator& source, int stage,
                    Picoseconds t_clk, std::uint64_t* out_words) {
    const int m = taps();
    const Picoseconds half_aperture = ff_spec_.aperture_ps / 2.0;
    const double dyn = ff_spec_.dynamic_jitter_sigma_ps;
    const double tau = ff_spec_.resolution_tau_ps;
    const bool jitter = dyn > 0.0;
    const bool aperture = half_aperture > 0.0;
    const bool noisy = jitter || aperture;
    // A tap draws only when a toggle lies within reach of its nominal
    // instant s0 (widened by a few ulps of s0): out of reach no draw could
    // change what it reads.
    const Picoseconds reach =
        half_aperture + common::kPolarGaussianBound * dyn;
    const bool now_value = source.current_value(stage);

    // The toggle history between -/+infinity sentinels: q[hi] is the first
    // toggle strictly after the sampling instant.
    const auto& hist = source.toggle_history(stage);
    const std::size_t n = hist.size();
    std::vector<Picoseconds> q;
    q.reserve(n + 2);
    q.push_back(-std::numeric_limits<Picoseconds>::infinity());
    q.insert(q.end(), hist.begin(), hist.end());
    q.push_back(std::numeric_limits<Picoseconds>::infinity());

    std::fill_n(out_words, (m + 63) / 64, std::uint64_t{0});
    std::size_t hi = n + 1;
    for (int j = 0; j < m; ++j) {
      const auto k = static_cast<std::size_t>(j);
      const Picoseconds s0 =
          ((t_clk + timing_.ff_clock_skew[k]) - timing_.cumulative_delay[k]) +
          static_offset_[k];
      while (q[hi - 1] > s0) --hi;
      while (q[hi] <= s0) ++hi;
      const Picoseconds r = reach + std::fabs(s0) * 0x1p-50;
      bool meta = false;
      if (noisy && (s0 - q[hi - 1] <= r || q[hi] - s0 <= r)) {
        Picoseconds s = s0;
        if (jitter) {
          s = s0 + dyn * rng_.next_gaussian();
          while (q[hi - 1] > s) --hi;
          while (q[hi] <= s) ++hi;
        }
        // The toggle nearest s inside the aperture is one of its two
        // neighbours; metastability decays exponentially in its distance.
        const bool left_in = aperture && !(q[hi - 1] < s - half_aperture);
        const bool right_in = aperture && !(s + half_aperture < q[hi]);
        if (left_in || right_in) {
          Picoseconds nearest = half_aperture;
          if (left_in) nearest = std::min(nearest, s - q[hi - 1]);
          if (right_in) nearest = std::min(nearest, q[hi] - s);
          meta = rng_.next_double() < std::exp(-nearest / tau);
        }
      }
      // Parity un-flip of the current value: n + 1 - hi toggles lie
      // strictly after the sampling instant.
      bool v = now_value != (((n + 1 - hi) & 1U) != 0);
      if (meta) {
        v = rng_.next_double() < 0.5;
        ++metastable_events_;
      }
      out_words[j >> 6] |= static_cast<std::uint64_t>(v) << (j & 63);
    }
  }

 private:
  fpga::ElaboratedDelayLine timing_;
  fpga::FlipFlopTimingSpec ff_spec_;
  common::Xoshiro256StarStar rng_;
  std::vector<Picoseconds> static_offset_;
  std::uint64_t metastable_events_ = 0;
};

}  // namespace trng::test
