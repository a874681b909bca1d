#include "sim/delay_line.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
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
  const std::size_t m = timing_.tap_delay.size();
  static_offset_.reserve(m);
  std::vector<Picoseconds> offset(m);
  for (std::size_t j = 0; j < m; ++j) {
    static_offset_.push_back(ff_spec_.static_offset_sigma_ps *
                             rng_.next_gaussian());
    offset[j] = timing_.ff_clock_skew[j] - timing_.cumulative_delay[j] +
                static_offset_[j];
    magnitude_ = std::max(magnitude_,
                          std::fabs(timing_.ff_clock_skew[j]) +
                              std::fabs(timing_.cumulative_delay[j]) +
                              std::fabs(static_offset_[j]));
  }

  // The taps in ascending offset: clock skew and static offsets make the
  // order non-monotone in j, which is where the bubbles come from.
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return offset[a] < offset[b];
                   });
  words_ = (m + 63) / 64;
  sorted_offset_.resize(m);
  prefix_mask_.assign((m + 1) * words_, 0);
  for (std::size_t r = 0; r < m; ++r) {
    sorted_offset_[r] = offset[order[r]];
    std::uint64_t* entry = &prefix_mask_[(r + 1) * words_];
    std::copy_n(entry - words_, words_, entry);
    entry[order[r] >> 6] |= 1ULL << (order[r] & 63);
  }
  offset_lo_ = sorted_offset_.front();
  offset_hi_ = sorted_offset_.back();
  candidates_.resize(words_);

  // m equal-width buckets over [offset_lo_, offset_hi_]. bucket_rank_[b]
  // counts the offsets in lower buckets; bucket() is monotone, so each of
  // them lies below every value of bucket b.
  const Picoseconds span = offset_hi_ - offset_lo_;
  bucket_scale_ = span > 0.0 ? static_cast<double>(m) / span : 0.0;
  bucket_rank_.assign(m, 0);
  for (const Picoseconds o : sorted_offset_) {
    if (bucket(o) + 1 < m) ++bucket_rank_[bucket(o) + 1];
  }
  std::partial_sum(bucket_rank_.begin(), bucket_rank_.end(),
                   bucket_rank_.begin());
}

std::size_t TappedDelayLineSim::bucket(Picoseconds offset) const {
  const double f = (offset - offset_lo_) * bucket_scale_;
  const double last = static_cast<double>(sorted_offset_.size() - 1);
  if (!(f > 0.0)) return 0;
  return f < last ? static_cast<std::size_t>(f)
                  : sorted_offset_.size() - 1;
}

std::size_t TappedDelayLineSim::rank_below(Picoseconds offset) const {
  std::size_t r = bucket_rank_[bucket(offset)];
  while (r < sorted_offset_.size() && sorted_offset_[r] < offset) ++r;
  return r;
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
  const std::size_t m = sorted_offset_.size();
  const std::size_t nw = words_;
  const Picoseconds half_aperture = ff_spec_.aperture_ps / 2.0;
  const double dyn = ff_spec_.dynamic_jitter_sigma_ps;
  const double tau = ff_spec_.resolution_tau_ps;
  const bool jitter = dyn > 0.0;
  const bool aperture = half_aperture > 0.0;
  const bool noisy = jitter || aperture;

  // A flip-flop samples at s = s0 + dyn * g, where s0 is its nominal
  // instant and g = next_gaussian() satisfies |g| <= kPolarGaussianBound.
  // It reads a value other than the level at s0, or goes metastable, only
  // if a toggle lies within reach = half_aperture + kPolarGaussianBound *
  // dyn of s0; only then does it draw. With no jitter and no aperture
  // (ideal flip-flops) nothing draws at all.
  const Picoseconds reach =
      half_aperture + common::kPolarGaussianBound * dyn;
  // band widens the reach by the rounding of every sum below (a few ulps of
  // t_clk and of the line's delays, 2^-46 relative leaves a wide margin):
  // a tap whose offset is at least band from q - t_clk for every toggle q
  // draws nothing, and its s0 sits on the same side of each toggle as its
  // offset does of q - t_clk.
  const Picoseconds band =
      reach + (reach + std::fabs(t_clk) + magnitude_) * 0x1p-46;
  const auto& hist = source.toggle_history(stage);
  const std::size_t n = hist.size();

  // hist[first, later) are the toggles within band of the line's nominal
  // instants t_clk + [offset_lo_, offset_hi_]. Every toggle after them
  // lies after every tap's instant: the fill is the current value
  // un-flipped by their parity. Toggles before `first` flip no tap. The
  // instants sit near the end of the retained history, so both walks are
  // short.
  std::size_t later = n;
  while (later > 0 && hist[later - 1] > t_clk + offset_hi_ + band) --later;
  std::size_t first = later;
  while (first > 0 && hist[first - 1] >= t_clk + offset_lo_ - band) --first;
  const bool now_value = source.current_value(stage);
  const bool fill = now_value != (((n - later) & 1U) != 0);
  std::fill_n(out_words, nw, fill ? ~0ULL : 0ULL);
  if ((m & 63) != 0) out_words[nw - 1] &= ~0ULL >> (64 - (m & 63));
  if (first == later) return;  // no toggle near the line: one level

  // Each toggle q flips the taps whose instant precedes it: the rank of
  // q - t_clk among the sorted offsets picks their prefix mask. The taps
  // within band of q are candidates; they run the flip-flop body below,
  // which replaces their bit. Their ranks lo and up are those of
  // q - t_clk -/+ band, a short walk from the rank of q - t_clk.
  std::uint64_t* cand = candidates_.data();
  std::fill_n(cand, nw, 0ULL);
  const Picoseconds* sorted = sorted_offset_.data();
  for (std::size_t i = first; i < later; ++i) {
    const Picoseconds x = hist[i] - t_clk;
    const std::size_t rank = rank_below(x);
    std::size_t lo = rank;
    while (lo > 0 && sorted[lo - 1] >= x - band) --lo;
    std::size_t up = rank;
    while (up < m && sorted[up] < x + band) ++up;
    const std::uint64_t* flip = &prefix_mask_[rank * nw];
    const std::uint64_t* near_hi = &prefix_mask_[up * nw];
    const std::uint64_t* near_lo = &prefix_mask_[lo * nw];
    for (std::size_t w = 0; w < nw; ++w) {
      out_words[w] ^= flip[w];
      cand[w] |= near_hi[w] & ~near_lo[w];
    }
  }

  // The candidates in ascending j, each through the per-tap body of the
  // walk in tests/capture_oracle.hpp: the same s0 association, reach test
  // and draws in the same order, so the generator stream and the output
  // match it bit for bit. hi counts the toggles at or before the sampling
  // instant; no toggle from `later` on lies at or before any s.
  const Picoseconds* skew = timing_.ff_clock_skew.data();
  const Picoseconds* cum = timing_.cumulative_delay.data();
  const Picoseconds* stat = static_offset_.data();
  // Work on a local copy of the RNG (written back below) so its state can
  // stay in registers across the loop.
  common::Xoshiro256StarStar rng = rng_;
  std::uint64_t meta_events = 0;
  std::size_t hi = later;
  const auto locate = [&](Picoseconds s) {
    while (hi > 0 && hist[hi - 1] > s) --hi;
    while (hi < n && hist[hi] <= s) ++hi;
  };
  constexpr Picoseconds kInf = std::numeric_limits<Picoseconds>::infinity();
  for (std::size_t w = 0; w < nw; ++w) {
    for (std::uint64_t bits = cand[w]; bits != 0; bits &= bits - 1) {
      const int b = std::countr_zero(bits);
      const std::size_t j = (w << 6) + static_cast<std::size_t>(b);
      const Picoseconds s0 = ((t_clk + skew[j]) - cum[j]) + stat[j];
      locate(s0);
      const Picoseconds r = reach + std::fabs(s0) * 0x1p-50;
      bool meta = false;
      if (noisy && ((hi > 0 && s0 - hist[hi - 1] <= r) ||
                    (hi < n && hist[hi] - s0 <= r))) {
        Picoseconds s = s0;
        if (jitter) {
          s = s0 + dyn * rng.next_gaussian();
          locate(s);
        }
        // Metastability: the toggle nearest to s in [s - ha, s + ha] can
        // only be one of its two neighbours. If one sits inside the
        // aperture the capture resolves to either rail, with probability
        // decaying exponentially in its distance.
        const Picoseconds left = hi > 0 ? hist[hi - 1] : -kInf;
        const Picoseconds right = hi < n ? hist[hi] : kInf;
        const bool left_in = aperture && !(left < s - half_aperture);
        const bool right_in = aperture && !(s + half_aperture < right);
        if (left_in || right_in) {
          Picoseconds nearest = half_aperture;
          if (left_in) nearest = std::min(nearest, s - left);
          if (right_in) nearest = std::min(nearest, right - s);
          meta = rng.next_double() < std::exp(-nearest / tau);
        }
      }
      // Parity un-flip of the current value (n - hi toggles lie strictly
      // after s); a metastable capture resolves to a random rail.
      bool v = now_value != (((n - hi) & 1U) != 0);
      if (meta) {
        v = rng.next_double() < 0.5;
        ++meta_events;
      }
      out_words[w] = (out_words[w] & ~(1ULL << b)) |
                     (static_cast<std::uint64_t>(v) << b);
    }
  }
  rng_ = rng;
  metastable_events_ += meta_events;
}

Picoseconds capture_history_window(Picoseconds look_back) {
  return std::max(RingOscillator::kDefaultHistoryWindowPs,
                  look_back + kCaptureLookaheadPs + 1.0);
}

}  // namespace trng::sim
