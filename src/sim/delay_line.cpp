#include "sim/delay_line.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace trng::sim {

TappedDelayLineSim::TappedDelayLineSim(const fpga::ElaboratedDelayLine& timing,
                                       const fpga::FlipFlopTimingSpec& ff_spec,
                                       std::uint64_t seed)
    : timing_(timing), ff_spec_(ff_spec), rng_(seed ^ 0x7D1ULL) {
  if (timing_.tap_delay.empty()) {
    throw std::invalid_argument("TappedDelayLineSim: empty line timing");
  }
  if (timing_.tap_delay.size() != timing_.cumulative_delay.size() ||
      timing_.tap_delay.size() != timing_.ff_clock_skew.size()) {
    throw std::invalid_argument("TappedDelayLineSim: inconsistent timing");
  }
  static_offset_.reserve(timing_.tap_delay.size());
  offset_lo_ = std::numeric_limits<Picoseconds>::infinity();
  offset_hi_ = -offset_lo_;
  for (std::size_t j = 0; j < timing_.tap_delay.size(); ++j) {
    static_offset_.push_back(ff_spec_.static_offset_sigma_ps *
                             rng_.next_gaussian());
    const Picoseconds offset = timing_.ff_clock_skew[j] -
                               timing_.cumulative_delay[j] + static_offset_[j];
    offset_lo_ = std::min(offset_lo_, offset);
    offset_hi_ = std::max(offset_hi_, offset);
  }
}

Picoseconds TappedDelayLineSim::static_offset(int tap) const {
  if (tap < 0 || tap >= taps()) {
    throw std::out_of_range("TappedDelayLineSim::static_offset: bad tap");
  }
  return static_offset_[static_cast<std::size_t>(tap)];
}

Picoseconds TappedDelayLineSim::observation_time(int tap,
                                                 Picoseconds t_clk) const {
  if (tap < 0 || tap >= taps()) {
    throw std::out_of_range("TappedDelayLineSim::observation_time: bad tap");
  }
  const auto j = static_cast<std::size_t>(tap);
  return t_clk + timing_.ff_clock_skew[j] - timing_.cumulative_delay[j];
}

void TappedDelayLineSim::capture_into(const RingOscillator& source, int stage,
                                      Picoseconds t_clk,
                                      std::uint64_t* out_words) {
  if (t_clk - look_back() < source.now() - source.history_window()) {
    throw std::logic_error(
        "TappedDelayLineSim::capture_into: the capture reads toggles older "
        "than the source's history window");
  }
  const int m = taps();
  const Picoseconds half_aperture = ff_spec_.aperture_ps / 2.0;
  const double dyn = ff_spec_.dynamic_jitter_sigma_ps;
  const double tau = ff_spec_.resolution_tau_ps;
  const bool jitter = dyn > 0.0;
  const bool aperture = half_aperture > 0.0;
  const bool noisy = jitter || aperture;

  // Sparse jitter. A flip-flop samples at s = s0 + dyn * g, where s0 is its
  // nominal instant and g = next_gaussian() satisfies
  // |g| <= kPolarGaussianBound. It reads a value other than the level at
  // s0, or goes metastable, only if a toggle lies within
  // reach = half_aperture + kPolarGaussianBound * dyn of s0. A tap with no
  // toggle in reach therefore reads the level at s0 under every draw, so
  // it takes that level without drawing: the skip is exact in
  // distribution, and it only changes which stream values the in-reach
  // taps consume. A few ulps of s0 widen the reach so the rounding of
  // s0 + dyn * g and s +- half_aperture cannot cross its edge. With no
  // jitter and no aperture (ideal flip-flops) nothing draws at all.
  const Picoseconds reach =
      half_aperture + common::kPolarGaussianBound * dyn;
  const auto& hist = source.toggle_history(stage);
  const std::size_t n = hist.size();
  const bool now_value = source.current_value(stage);

  // Quiet line: no toggle within reach of the whole span of nominal
  // instants, t_clk + [offset_lo_, offset_hi_]. Then every tap reads the
  // same level and none draws, which is what the per-tap loop below would
  // produce, so the line is one fill. The span's rounding margin (2^-48
  // relative) covers the loop's (2^-50) plus the difference between
  // t_clk + offset and the loop's sum. A stage toggles about every 1.4 ns
  // and a 36-tap line spans about 0.6 ns, so about two thirds of the lines
  // of a restart-mode carry-chain source are quiet.
  const Picoseconds slack =
      reach + (std::fabs(t_clk) + std::max(std::fabs(offset_lo_),
                                           std::fabs(offset_hi_))) *
                  0x1p-48;
  std::size_t later = n;  // hist[later, n) lie after the span
  while (later > 0 && hist[later - 1] > t_clk + offset_hi_ + slack) --later;
  if (later == 0 || hist[later - 1] < t_clk + offset_lo_ - slack) {
    const bool v = now_value != (((n - later) & 1U) != 0);
    const std::size_t nwords = (static_cast<std::size_t>(m) + 63) / 64;
    std::fill_n(out_words, nwords, v ? ~0ULL : 0ULL);
    if ((m & 63) != 0) out_words[nwords - 1] &= ~0ULL >> (64 - (m & 63));
    return;
  }

  // Copy this stage's (already contiguous) toggle history between two
  // sentinels: the per-tap scan below then walks one flat array instead of
  // binary-searching per flip-flop. The +/-infinity sentinels absorb the
  // hi == 0 / hi == n boundary checks: the walk and the window compares
  // below never read past a sentinel, and a sentinel is never in reach.
  scratch_toggles_.clear();
  scratch_toggles_.reserve(n + 2);
  scratch_toggles_.push_back(-std::numeric_limits<Picoseconds>::infinity());
  scratch_toggles_.insert(scratch_toggles_.end(), hist.begin(), hist.end());
  scratch_toggles_.push_back(std::numeric_limits<Picoseconds>::infinity());
  const Picoseconds* q = scratch_toggles_.data();

  // Hoisted per-tap inputs: same values observation_time and the member
  // lookups produce, minus a bounds-checked call per flip-flop.
  const Picoseconds* skew = timing_.ff_clock_skew.data();
  const Picoseconds* cum = timing_.cumulative_delay.data();
  const Picoseconds* stat = static_offset_.data();

  // Work on a local copy of the RNG (written back below) so its state can
  // stay in registers across the loop.
  common::Xoshiro256StarStar rng = rng_;
  std::uint64_t meta_events = 0;

  // Accumulate each output word in a register and store it once: out_words
  // is a uint64_t* the compiler must assume can alias the RNG state, so
  // per-tap read-modify-write stores would force member reloads every
  // iteration. Every word in [0, ceil(m/64)) gets written exactly once, and
  // bits at or above `m` in the last word stay zero.
  std::uint64_t word = 0;
  // hi indexes the padded array: q[hi] is the first toggle strictly after
  // the sampling instant (q[1..n] are the real toggles), so hi stays in
  // [1, n + 1]. Adjacent taps' instants are a bin width apart, so a short
  // walk from the previous tap's position replaces a binary search. Tap 0
  // starts at n + 1 and walks down from the newest toggle: the observation
  // instants sit near the end of the retained history.
  std::size_t hi = n + 1;
  for (int j = 0; j < m; ++j) {
    // Same association as observation_time(j, t_clk) + static_offset(j).
    const Picoseconds s0 = ((t_clk + skew[j]) - cum[j]) + stat[j];
    while (q[hi - 1] > s0) --hi;
    while (q[hi] <= s0) ++hi;
    const Picoseconds r = reach + std::fabs(s0) * 0x1p-50;
    bool meta = false;
    if (noisy && (s0 - q[hi - 1] <= r || q[hi] - s0 <= r)) {
      Picoseconds s = s0;
      if (jitter) {
        s = s0 + dyn * rng.next_gaussian();
        while (q[hi - 1] > s) --hi;
        while (q[hi] <= s) ++hi;
      }
      // Metastability: the toggle nearest to s in [s - ha, s + ha] can
      // only be one of the two neighbours q[hi-1] (<= s) and q[hi] (> s).
      // If one sits inside the aperture the capture resolves to either
      // rail, with probability decaying exponentially in its distance.
      const bool left_in = aperture && !(q[hi - 1] < s - half_aperture);
      const bool right_in = aperture && !(s + half_aperture < q[hi]);
      if (left_in || right_in) {
        Picoseconds nearest = half_aperture;
        if (left_in) nearest = std::min(nearest, s - q[hi - 1]);
        if (right_in) nearest = std::min(nearest, q[hi] - s);
        meta = rng.next_double() < std::exp(-nearest / tau);
      }
    }
    // Parity un-flip of the current value (n + 1 - hi real toggles lie
    // strictly after s); a metastable capture resolves to a random rail.
    bool v = now_value != (((n + 1 - hi) & 1U) != 0);
    if (meta) {
      v = rng.next_double() < 0.5;
      ++meta_events;
    }
    // Branchless pack: v is an unpredictable ~50/50 bit, so a conditional
    // OR would mispredict every other capture.
    word |= static_cast<std::uint64_t>(v) << (j & 63);
    if ((j & 63) == 63) {
      out_words[j >> 6] = word;
      word = 0;
    }
  }
  if ((m & 63) != 0) out_words[static_cast<std::size_t>(m) >> 6] = word;
  rng_ = rng;
  metastable_events_ += meta_events;
}

Picoseconds capture_history_window(Picoseconds look_back) {
  return std::max(RingOscillator::kDefaultHistoryWindowPs,
                  look_back + kCaptureLookaheadPs + 1.0);
}

}  // namespace trng::sim
