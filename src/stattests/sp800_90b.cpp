#include "stattests/sp800_90b.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"

namespace trng::stat::sp800_90b {

namespace {

constexpr double kZ = 2.576;  // the specification's 99% confidence quantile
constexpr unsigned kTupleCutoff = 35;
constexpr unsigned kMarkovPathLen = 128;

double clamp_entropy(double h) { return std::min(1.0, std::max(0.0, h)); }

/// p_u = min(1, p + Z sqrt(p (1 - p) / (L - 1))), the bound of 6.3.1 step 2,
/// 6.3.5 step 4 and 6.3.6 step 4.
double upper_bound(double p, std::size_t len) {
  return std::min(
      1.0, p + kZ * std::sqrt(p * (1.0 - p) / static_cast<double>(len - 1)));
}

}  // namespace

double most_common_value_estimate(const common::BitStream& bits) {
  const std::size_t n = bits.size();
  if (n < 2) {
    throw std::invalid_argument("most_common_value_estimate: need >= 2 bits");
  }
  const std::size_t ones = bits.count_ones();
  const double p_hat = static_cast<double>(std::max(ones, n - ones)) /
                       static_cast<double>(n);
  return -std::log2(upper_bound(p_hat, n));
}

double collision_estimate(const common::BitStream& bits) {
  const std::size_t n = bits.size();
  if (n < 3000) {
    throw std::invalid_argument("collision_estimate: need >= 3000 bits");
  }
  // Walk the sequence in collision windows: starting fresh, a binary
  // repeat occurs after 2 samples (x0 == x1) or is forced after 3.
  common::RunningStats t_stats;
  std::size_t i = 0;
  while (i + 3 <= n) {
    if (bits[i] == bits[i + 1]) {
      t_stats.add(2.0);
      i += 2;
    } else {
      t_stats.add(3.0);
      i += 3;
    }
  }
  if (t_stats.count() < 100) {
    throw std::invalid_argument("collision_estimate: too few collisions");
  }
  // E[T] = 3 - (p^2 + q^2); lower-confidence-bound the mean, solve for p.
  const double mean_lcb =
      t_stats.mean() - kZ * t_stats.stddev() /
                           std::sqrt(static_cast<double>(t_stats.count()));
  const double c = 3.0 - mean_lcb;  // p^2 + q^2, upper bound
  if (c >= 1.0) return 0.0;         // fully deterministic
  if (c <= 0.5) return 1.0;         // at/under the fair-coin floor
  const double p = 0.5 * (1.0 + std::sqrt(2.0 * c - 1.0));
  return clamp_entropy(-std::log2(p));
}

double markov_estimate(const common::BitStream& bits) {
  if (bits.size() < 1000) {
    throw std::invalid_argument("markov_estimate: need >= 1000 bits");
  }
  // Estimate initial and transition probabilities.
  const double n = static_cast<double>(bits.size());
  const double p1 =
      std::clamp(static_cast<double>(bits.count_ones()) / n, 1e-12,
                 1.0 - 1e-12);
  std::size_t trans[2][2] = {};
  for (std::size_t i = 0; i + 1 < bits.size(); ++i) {
    ++trans[bits[i] ? 1 : 0][bits[i + 1] ? 1 : 0];
  }
  double p[2][2];
  for (int a = 0; a < 2; ++a) {
    const double row = static_cast<double>(trans[a][0] + trans[a][1]);
    for (int b = 0; b < 2; ++b) {
      p[a][b] = row > 0 ? static_cast<double>(trans[a][b]) / row : 0.5;
      p[a][b] = std::clamp(p[a][b], 1e-12, 1.0 - 1e-12);
    }
  }
  // Most probable path of kMarkovPathLen bits, by dynamic programming in
  // the log domain.
  double best[2] = {std::log2(1.0 - p1), std::log2(p1)};
  for (unsigned step = 1; step < kMarkovPathLen; ++step) {
    const double next0 =
        std::max(best[0] + std::log2(p[0][0]), best[1] + std::log2(p[1][0]));
    const double next1 =
        std::max(best[0] + std::log2(p[0][1]), best[1] + std::log2(p[1][1]));
    best[0] = next0;
    best[1] = next1;
  }
  const double log_pmax = std::max(best[0], best[1]);
  return std::min(1.0, -log_pmax / static_cast<double>(kMarkovPathLen));
}

namespace {

/// The largest number of times any overlapping t-bit tuple (t <= 24)
/// occurs in `bits`. Up to t = 16 the tuples are counted in a dense 2^t
/// table; longer ones are sorted and counted as runs of equal values, so
/// memory stays O(n) instead of growing to 2^24 counters.
std::uint32_t max_tuple_count(const common::BitStream& bits, unsigned t) {
  const std::size_t n = bits.size();
  const std::uint32_t mask = (1u << t) - 1u;
  std::uint32_t window = 0;
  if (t <= 16) {
    std::vector<std::uint32_t> counts(1u << t, 0);
    for (std::size_t i = 0; i < n; ++i) {
      window = ((window << 1) | (bits[i] ? 1u : 0u)) & mask;
      if (i + 1 >= t) ++counts[window];
    }
    return *std::max_element(counts.begin(), counts.end());
  }
  std::vector<std::uint32_t> windows;
  windows.reserve(n - t + 1);
  for (std::size_t i = 0; i < n; ++i) {
    window = ((window << 1) | (bits[i] ? 1u : 0u)) & mask;
    if (i + 1 >= t) windows.push_back(window);
  }
  std::sort(windows.begin(), windows.end());
  std::uint32_t best = 0;
  for (std::size_t i = 0; i < windows.size();) {
    std::size_t j = i + 1;
    while (j < windows.size() && windows[j] == windows[i]) ++j;
    best = std::max(best, static_cast<std::uint32_t>(j - i));
    i = j;
  }
  return best;
}

}  // namespace

double t_tuple_estimate(const common::BitStream& bits) {
  const std::size_t n = bits.size();
  if (n < 1000) {
    throw std::invalid_argument("t_tuple_estimate: need >= 1000 bits");
  }
  double p_max = 0.0;
  for (unsigned t = 1; t <= 24; ++t) {
    if (n < t) break;
    const std::uint32_t max_count = max_tuple_count(bits, t);
    if (max_count < kTupleCutoff) break;  // t too long to be sound
    const double p_tuple =
        static_cast<double>(max_count) / static_cast<double>(n - t + 1);
    p_max = std::max(p_max, std::pow(p_tuple, 1.0 / static_cast<double>(t)));
  }
  if (p_max <= 0.0) return 1.0;
  return clamp_entropy(-std::log2(upper_bound(p_max, n)));
}

double lrs_estimate(const common::BitStream& bits) {
  const std::size_t n = bits.size();
  if (n < 1000) {
    throw std::invalid_argument("lrs_estimate: need >= 1000 bits");
  }
  // For W = 8, 16, 32, 64 while some W-window repeats, the collision
  // proportion of overlapping windows: P_W = sum_i C(c_i, 2) / C(N, 2).
  double p_max = 0.0;
  const unsigned w_cap = static_cast<unsigned>(std::min<std::size_t>(64, n / 2));
  for (unsigned w = 8; w <= w_cap; w *= 2) {
    std::unordered_map<std::uint64_t, std::uint32_t> counts;
    counts.reserve(n);
    std::uint64_t window = 0;
    const std::uint64_t mask =
        (w >= 64) ? ~0ULL : ((1ULL << w) - 1ULL);
    bool any_repeat = false;
    for (std::size_t i = 0; i < n; ++i) {
      window = ((window << 1) | (bits[i] ? 1ULL : 0ULL)) & mask;
      if (i + 1 >= w) {
        const auto c = ++counts[window];
        if (c >= 2) any_repeat = true;
      }
    }
    if (!any_repeat) break;
    const double total = static_cast<double>(n - w + 1);
    double pairs = 0.0;
    for (const auto& [key, c] : counts) {
      (void)key;
      pairs += 0.5 * static_cast<double>(c) * static_cast<double>(c - 1);
    }
    const double all_pairs = 0.5 * total * (total - 1.0);
    const double p_col = pairs / all_pairs;  // P(two windows equal)
    p_max = std::max(p_max, std::pow(p_col, 1.0 / static_cast<double>(w)));
  }
  if (p_max <= 0.0) return 1.0;
  return clamp_entropy(-std::log2(upper_bound(p_max, n)));
}

double non_iid_min_entropy(const common::BitStream& bits) {
  if (bits.size() < 10000) {
    throw std::invalid_argument("non_iid_min_entropy: need >= 10000 bits");
  }
  double h = most_common_value_estimate(bits);
  h = std::min(h, collision_estimate(bits));
  h = std::min(h, markov_estimate(bits));
  h = std::min(h, t_tuple_estimate(bits));
  h = std::min(h, lrs_estimate(bits));
  return h;
}

}  // namespace trng::stat::sp800_90b
