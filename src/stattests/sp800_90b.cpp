#include "stattests/sp800_90b.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <stdexcept>
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

namespace {

/// The LCP array of `bits`' suffixes in sorted order: entry i > 0 is the
/// length of the longest common prefix of the i-th and (i-1)-th smallest
/// suffix (entry 0 is 0). The suffix array comes from prefix doubling with
/// counting sorts, O(L log L); the LCP from Kasai's algorithm, O(L).
std::vector<std::size_t> sorted_suffix_lcp(const common::BitStream& bits) {
  const std::size_t n = bits.size();
  std::vector<std::uint8_t> s(n);
  for (std::size_t i = 0; i < n; ++i) s[i] = bits[i] ? 1 : 0;
  // sa sorted by the first k symbols; cls[i] ranks suffix i's first k
  // symbols (a suffix shorter than k ranks below its extensions).
  std::vector<std::size_t> sa(n), cls(n), next(n), order(n), count(n + 1);
  std::size_t z = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (s[i] == 0) sa[z++] = i;
  }
  const std::size_t zeros = z;
  for (std::size_t i = 0; i < n; ++i) {
    if (s[i] != 0) sa[z++] = i;
    cls[i] = s[i] == 0 || zeros == 0 ? 0 : 1;
  }
  std::size_t classes = zeros == 0 || zeros == n ? 1 : 2;
  for (std::size_t k = 1; classes < n; k *= 2) {
    // By the second key (the class of i + k; the suffixes without one
    // first), then stably by the first.
    std::size_t o = 0;
    for (std::size_t i = n - k; i < n; ++i) order[o++] = i;
    for (const std::size_t i : sa) {
      if (i >= k) order[o++] = i - k;
    }
    std::fill_n(count.begin(), classes + 1, 0);
    for (const std::size_t i : order) ++count[cls[i] + 1];
    for (std::size_t c = 1; c <= classes; ++c) count[c] += count[c - 1];
    for (const std::size_t i : order) sa[count[cls[i]]++] = i;
    const auto second = [&](std::size_t i) {
      return i + k < n ? cls[i + k] + 1 : 0;
    };
    next[sa[0]] = 0;
    for (std::size_t r = 1; r < n; ++r) {
      const std::size_t a = sa[r - 1];
      const std::size_t b = sa[r];
      next[b] = next[a] + (cls[a] != cls[b] || second(a) != second(b) ? 1 : 0);
    }
    classes = next[sa[n - 1]] + 1;
    cls.swap(next);
  }
  // Kasai: cls[i] is now suffix i's rank.
  std::vector<std::size_t> lcp(n, 0);
  std::size_t h = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (cls[i] == 0) {
      h = 0;
      continue;
    }
    const std::size_t j = sa[cls[i] - 1];
    while (i + h < n && j + h < n && s[i + h] == s[j + h]) ++h;
    lcp[cls[i]] = h;
    if (h > 0) --h;
  }
  return lcp;
}

}  // namespace

double lrs_estimate(const common::BitStream& bits) {
  const std::size_t n = bits.size();
  if (n < 1000) {
    throw std::invalid_argument("lrs_estimate: need >= 1000 bits");
  }
  // A W-tuple occurring c times is a run of c sorted suffixes whose c - 1
  // adjacent LCPs are all >= W. So v, the longest W with a repeat, is the
  // largest LCP, and u, the smallest W whose most common W-tuple occurs
  // fewer than 35 times, is one more than the largest minimum over 34
  // adjacent LCPs.
  const std::vector<std::size_t> lcp = sorted_suffix_lcp(bits);
  const std::size_t v = *std::max_element(lcp.begin(), lcp.end());
  const std::size_t run = kTupleCutoff - 1;
  std::size_t u = 1;
  std::deque<std::size_t> window;  // minima of lcp[i - run + 1, i], rising
  for (std::size_t i = 1; i < n; ++i) {
    while (!window.empty() && lcp[window.back()] >= lcp[i]) window.pop_back();
    window.push_back(i);
    if (window.front() + run <= i) window.pop_front();
    if (i >= run) u = std::max(u, lcp[window.front()] + 1);
  }
  if (u > v) return 1.0;

  // P_W = sum_i C(C_i, 2) / C(L - W + 1, 2): the pairs of sorted suffixes
  // whose LCP (the minimum of the adjacent LCPs between them) is >= W.
  // Count the pairs by their minimum: adjacent LCP k is the minimum of
  // (k - prev) * (nxt - k) ranges, prev the last index before k with a
  // smaller value and nxt the first after it with a value <= lcp[k].
  std::vector<std::size_t> prev(n), nxt(n);
  std::vector<std::size_t> stack;
  for (std::size_t k = 1; k < n; ++k) {
    while (!stack.empty() && lcp[stack.back()] >= lcp[k]) stack.pop_back();
    prev[k] = stack.empty() ? 0 : stack.back();
    stack.push_back(k);
  }
  stack.clear();
  for (std::size_t k = n; k-- > 1;) {
    while (!stack.empty() && lcp[stack.back()] > lcp[k]) stack.pop_back();
    nxt[k] = stack.empty() ? n : stack.back();
    stack.push_back(k);
  }
  std::vector<double> pairs(v + 2, 0.0);  // pairs[W]: LCP exactly W, then >= W
  for (std::size_t k = 1; k < n; ++k) {
    pairs[lcp[k]] += static_cast<double>(k - prev[k]) *
                     static_cast<double>(nxt[k] - k);
  }
  double p_max = 0.0;
  for (std::size_t w = v; w >= u; --w) {
    pairs[w] += pairs[w + 1];
    const double windows = static_cast<double>(n - w + 1);
    const double p_w = pairs[w] / (0.5 * windows * (windows - 1.0));
    p_max = std::max(p_max, std::pow(p_w, 1.0 / static_cast<double>(w)));
  }
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
