// Bit-serial SP 800-22 counting kernels, used only by tests.
//
// src/ ships one implementation of each test: the word-parallel kernels in
// stattests/sp800_22_wordpar.hpp. The loops below restate each counting
// kernel one bit at a time, straight from the specification, so the tests
// can check the word-level code against them. They hand their counts to
// the same stat::detail statistic functions the production kernels call,
// so on equal counts the two return bit-identical p-value doubles, notes
// and applicable flags: comparisons are exact ==, never a tolerance.
//
// The DFT has no bit-serial oracle here (its kernel is an FFT on doubles);
// tests/test_battery_equivalence.cpp checks it against a naive O(n^2)
// transform and the radix-2 FFT in fft_oracle.hpp instead.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "common/bitstream.hpp"
#include "stattests/sp800_22_detail.hpp"
#include "stattests/sp800_22_wordpar.hpp"

namespace trng::stat::oracle {

// ---- 2.1-2.4, 2.13: frequency, block frequency, runs, longest run, cusum ---

inline TestResult frequency_test(const common::BitStream& bits,
                                 Gating gating = Gating::kStrict) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_frequency(n, gating)) return *gated;
  std::size_t ones = 0;
  for (std::size_t i = 0; i < n; ++i) ones += bits[i] ? 1 : 0;
  return detail::frequency_from_counts(n, ones);
}

inline TestResult block_frequency_test(const common::BitStream& bits,
                                       std::size_t block_len = 0,
                                       Gating gating = Gating::kStrict) {
  const std::size_t n = bits.size();
  const std::size_t m =
      block_len == 0 ? detail::block_frequency_auto_m(n) : block_len;
  if (auto gated = detail::gate_block_frequency(n, m, gating)) return *gated;
  const std::size_t big_n = n / m;  // partial final block is discarded
  std::vector<std::size_t> ones_per_block(big_n, 0);
  for (std::size_t b = 0; b < big_n; ++b) {
    for (std::size_t j = 0; j < m; ++j) {
      ones_per_block[b] += bits[b * m + j] ? 1 : 0;
    }
  }
  return detail::block_frequency_from_counts(m, ones_per_block);
}

inline TestResult runs_test(const common::BitStream& bits,
                            Gating gating = Gating::kStrict) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_runs(n, gating)) return *gated;
  std::size_t ones = 0;
  for (std::size_t i = 0; i < n; ++i) ones += bits[i] ? 1 : 0;
  std::size_t transitions = 0;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    if (bits[k] != bits[k + 1]) ++transitions;
  }
  return detail::runs_from_counts(n, ones, transitions);
}

inline TestResult longest_run_test(const common::BitStream& bits) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_longest_run(n)) return *gated;
  const auto regime = detail::longest_run_regime(n);
  const std::size_t block_len = regime->block_len;
  const std::size_t big_n = n / block_len;
  std::vector<unsigned> per_block(big_n, 0);
  for (std::size_t b = 0; b < big_n; ++b) {
    unsigned run = 0;
    for (std::size_t j = 0; j < block_len; ++j) {
      run = bits[b * block_len + j] ? run + 1 : 0;
      per_block[b] = std::max(per_block[b], run);
    }
  }
  return detail::longest_run_from_counts(*regime, big_n, per_block);
}

inline TestResult cumulative_sums_test(const common::BitStream& bits,
                                       Gating gating = Gating::kStrict) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_cusum(n, gating)) return *gated;
  long s = 0;
  long max_fwd = 0;
  for (std::size_t i = 0; i < n; ++i) {
    s += bits[i] ? 1 : -1;
    max_fwd = std::max(max_fwd, std::labs(s));
  }
  long s_b = 0;
  long max_bwd = 0;
  for (std::size_t i = n; i-- > 0;) {
    s_b += bits[i] ? 1 : -1;
    max_bwd = std::max(max_bwd, std::labs(s_b));
  }
  return detail::cusum_from_extrema(n, max_fwd, max_bwd);
}

// ---- 2.5 rank --------------------------------------------------------------

/// Gauss-Jordan rank of a GF(2) matrix given as row bitmasks; each row uses
/// the low `dim` bits.
inline int gf2_rank(std::vector<std::uint64_t> rows, int dim) {
  const std::size_t nrows = rows.size();
  std::size_t rank = 0;
  for (int col = dim - 1; col >= 0 && rank < nrows; --col) {
    const std::uint64_t mask = 1ULL << col;
    std::size_t pivot = rank;
    while (pivot < nrows && !(rows[pivot] & mask)) ++pivot;
    if (pivot == nrows) continue;
    std::swap(rows[rank], rows[pivot]);
    for (std::size_t i = 0; i < nrows; ++i) {
      if (i != rank && (rows[i] & mask)) rows[i] ^= rows[rank];
    }
    ++rank;
  }
  return static_cast<int>(rank);
}

inline TestResult rank_test(const common::BitStream& bits) {
  if (auto gated = detail::gate_rank(bits.size())) return *gated;
  constexpr std::size_t kM = 32;  // square matrix dimension
  constexpr std::size_t kBitsPerMatrix = kM * kM;
  const std::size_t big_n = bits.size() / kBitsPerMatrix;
  std::size_t f_full = 0, f_minus1 = 0;
  std::vector<std::uint64_t> rows(kM);
  for (std::size_t m = 0; m < big_n; ++m) {
    for (std::size_t i = 0; i < kM; ++i) {
      rows[i] = 0;
      for (std::size_t j = 0; j < kM; ++j) {
        if (bits[m * kBitsPerMatrix + i * kM + j]) rows[i] |= 1ULL << j;
      }
    }
    const int rank = gf2_rank(rows, static_cast<int>(kM));
    if (rank == static_cast<int>(kM)) {
      ++f_full;
    } else if (rank == static_cast<int>(kM) - 1) {
      ++f_minus1;
    }
  }
  return detail::rank_from_counts(big_n, f_full, f_minus1);
}

// ---- 2.7 / 2.8 templates ---------------------------------------------------

inline TestResult non_overlapping_template_test(const common::BitStream& bits,
                                                unsigned tpl_len = 9) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_non_overlapping_template(n, tpl_len)) {
    return *gated;
  }
  constexpr std::size_t kBlocks = 8;  // N
  const std::size_t block_len = n / kBlocks;
  const auto templates = aperiodic_templates(tpl_len);
  const std::uint32_t window_mask = (1u << tpl_len) - 1u;
  // Slide a tpl_len-bit window through each block; a match consumes the
  // window (non-overlapping), a miss slides it one bit.
  std::vector<std::array<std::size_t, kBlocks>> w(templates.size());
  for (std::size_t t = 0; t < templates.size(); ++t) {
    for (std::size_t b = 0; b < kBlocks; ++b) {
      std::size_t count = 0;
      std::uint32_t window = 0;
      unsigned fill = 0;
      for (std::size_t pos = b * block_len; pos < (b + 1) * block_len; ++pos) {
        window = ((window << 1) | (bits[pos] ? 1u : 0u)) & window_mask;
        if (++fill < tpl_len) continue;
        if (window == templates[t]) {
          ++count;
          fill = 0;
        }
      }
      w[t][b] = count;
    }
  }
  return detail::non_overlapping_template_from_counts(n, tpl_len, w);
}

inline TestResult overlapping_template_test(const common::BitStream& bits,
                                            unsigned tpl_len = 9) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_overlapping_template(n, tpl_len)) {
    return *gated;
  }
  constexpr std::size_t kBlockLen = 1032;
  const std::size_t big_n = n / kBlockLen;
  std::array<std::size_t, 6> v{};
  for (std::size_t b = 0; b < big_n; ++b) {
    std::size_t count = 0;
    unsigned run = 0;
    for (std::size_t j = 0; j < kBlockLen; ++j) {
      run = bits[b * kBlockLen + j] ? run + 1 : 0;
      if (run >= tpl_len) ++count;  // overlapping all-ones matches
    }
    v[std::min<std::size_t>(count, 5)]++;
  }
  return detail::overlapping_template_from_counts(big_n, v);
}

// ---- 2.9 universal ---------------------------------------------------------

/// Accumulated log2 distance sum over the test blocks [q, blocks), reading
/// each L-bit block MSB-first one bit at a time (Section 2.9.4).
inline double universal_distance_log_sum(const common::BitStream& bits,
                                         unsigned big_l, std::size_t q,
                                         std::size_t blocks) {
  std::vector<std::size_t> last_seen(std::size_t{1} << big_l, 0);
  auto block_value = [&](std::size_t b) {
    std::size_t v = 0;
    for (unsigned j = 0; j < big_l; ++j) {
      v = (v << 1) | (bits[b * big_l + j] ? 1u : 0u);
    }
    return v;
  };
  for (std::size_t b = 0; b < q; ++b) last_seen[block_value(b)] = b + 1;
  double sum = 0.0;
  for (std::size_t b = q; b < blocks; ++b) {
    const std::size_t v = block_value(b);
    sum += std::log2(static_cast<double>(b + 1 - last_seen[v]));
    last_seen[v] = b + 1;
  }
  return sum;
}

inline TestResult universal_test(const common::BitStream& bits) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_universal(n)) return *gated;
  const detail::UniversalRow* row = detail::universal_row(n);
  const std::size_t q = std::size_t{10} << row->big_l;
  const std::size_t blocks = n / row->big_l;
  return detail::universal_from_sum(
      *row, universal_distance_log_sum(bits, row->big_l, q, blocks),
      blocks - q);
}

inline UniversalStatistic universal_statistic(const common::BitStream& bits,
                                              unsigned big_l, std::size_t q,
                                              double expected,
                                              double variance) {
  const std::size_t blocks = bits.size() / big_l;
  if (blocks <= q) throw std::invalid_argument("oracle: need blocks > Q");
  return detail::universal_statistic_from_sum(
      universal_distance_log_sum(bits, big_l, q, blocks), blocks - q, big_l,
      expected, variance);
}

// ---- 2.10 linear complexity ------------------------------------------------

/// Berlekamp–Massey over GF(2): linear complexity of a bit block. Bits are
/// held one per byte and walked through raw pointers, so the O(M^2) loops
/// stay cheap at the gate's M = 5000 even in unoptimized sanitizer builds.
inline std::size_t berlekamp_massey(const std::vector<bool>& block) {
  const std::size_t n = block.size();
  const std::vector<std::uint8_t> bytes(block.begin(), block.end());
  std::vector<std::uint8_t> c_poly(n, 0), b_poly(n, 0), t_poly(n, 0);
  const std::uint8_t* s = bytes.data();
  std::uint8_t* c = c_poly.data();
  std::uint8_t* b = b_poly.data();
  std::uint8_t* t = t_poly.data();
  if (n > 0) c[0] = b[0] = 1;
  std::size_t l = 0;
  std::size_t b_terms = 1;  // deg B < b_terms: B was saved with deg <= L
  std::size_t m_shift = 1;  // n - m in the classic formulation
  for (std::size_t i = 0; i < n; ++i) {
    // Discrepancy d = s_i + sum_{j=1..L} c_j * s_{i-j}.
    std::uint8_t d = s[i];
    for (std::size_t j = 1; j <= l; ++j) d ^= c[j] & s[i - j];
    if (d == 0) {
      ++m_shift;
      continue;
    }
    std::copy(c, c + n, t);
    for (std::size_t j = 0; j < b_terms && j + m_shift < n; ++j) {
      c[j + m_shift] ^= b[j];
    }
    if (2 * l <= i) {
      std::swap(b, t);  // B = the C from before this step
      b_terms = l + 1;
      l = i + 1 - l;
      m_shift = 1;
    } else {
      ++m_shift;
    }
  }
  return l;
}

inline TestResult linear_complexity_test(const common::BitStream& bits,
                                         std::size_t block_len = 500) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_linear_complexity(n, block_len)) {
    return *gated;
  }
  const std::size_t big_n = n / block_len;
  std::vector<std::size_t> lengths(big_n, 0);
  std::vector<bool> block(block_len);
  for (std::size_t b = 0; b < big_n; ++b) {
    for (std::size_t j = 0; j < block_len; ++j) {
      block[j] = bits[b * block_len + j];
    }
    lengths[b] = berlekamp_massey(block);
  }
  return detail::linear_complexity_from_lengths(block_len, lengths);
}

// ---- 2.11 serial / 2.12 approximate entropy --------------------------------

/// Counts of all overlapping m-bit patterns with cyclic extension, indexed
/// by the MSB-first pattern value; empty for m == 0 (psi^2_0 = 0).
inline std::vector<std::size_t> pattern_counts(const common::BitStream& bits,
                                               unsigned m) {
  if (m == 0) return {};
  const std::size_t n = bits.size();
  std::vector<std::size_t> counts(std::size_t{1} << m, 0);
  const std::uint32_t mask = (1u << m) - 1u;
  std::uint32_t window = 0;
  for (unsigned j = 0; j + 1 < m; ++j) {
    window = (window << 1) | (bits[j] ? 1u : 0u);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t next = (i + m - 1) % n;  // cyclic extension
    window = ((window << 1) | (bits[next] ? 1u : 0u)) & mask;
    ++counts[window];
  }
  return counts;
}

inline TestResult serial_test(const common::BitStream& bits, unsigned m = 16,
                              Gating gating = Gating::kStrict) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_serial(n, m, gating)) return *gated;
  auto psi = [&](unsigned k) {
    return detail::psi_squared_from_counts(n, pattern_counts(bits, k));
  };
  return detail::serial_from_psis(m, psi(m), psi(m - 1), psi(m - 2));
}

inline TestResult approximate_entropy_test(const common::BitStream& bits,
                                           unsigned m = 10,
                                           Gating gating = Gating::kStrict) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_approximate_entropy(n, m, gating)) {
    return *gated;
  }
  return detail::approximate_entropy_from_phis(
      n, m, detail::phi_from_counts(n, pattern_counts(bits, m)),
      detail::phi_from_counts(n, pattern_counts(bits, m + 1)));
}

// ---- 2.14 / 2.15 random excursions -----------------------------------------

inline TestResult random_excursions_test(const common::BitStream& bits) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_excursions(n, "random_excursions")) {
    return *gated;
  }
  // visits[s][k]: cycles visiting state s (-4..-1, 1..4 -> 0..7) exactly k
  // times, k capped at 5. A cycle is a zero-to-zero excursion.
  std::array<std::array<std::size_t, 6>, 8> visits{};
  std::array<std::size_t, 8> cycle_visits{};
  std::size_t cycles = 0;
  auto close_cycle = [&] {
    for (std::size_t s = 0; s < 8; ++s) {
      ++visits[s][std::min<std::size_t>(cycle_visits[s], 5)];
      cycle_visits[s] = 0;
    }
    ++cycles;
  };
  long walk = 0;
  for (std::size_t i = 0; i < n; ++i) {
    walk += bits[i] ? 1 : -1;
    if (walk == 0) {
      close_cycle();
    } else if (walk >= -4 && walk <= 4) {
      ++cycle_visits[static_cast<std::size_t>(walk < 0 ? walk + 4 : walk + 3)];
    }
  }
  if (walk != 0) close_cycle();  // final partial cycle counts per the spec
  return detail::excursions_from_counts(cycles, visits);
}

inline TestResult random_excursions_variant_test(
    const common::BitStream& bits) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_excursions(n, "random_excursions_variant")) {
    return *gated;
  }
  std::array<std::size_t, 19> total_visits{};  // states -9..9 (index x+9)
  std::size_t cycles = 0;
  long walk = 0;
  for (std::size_t i = 0; i < n; ++i) {
    walk += bits[i] ? 1 : -1;
    if (walk == 0) {
      ++cycles;
    } else if (walk >= -9 && walk <= 9) {
      ++total_visits[static_cast<std::size_t>(walk + 9)];
    }
  }
  if (walk != 0) ++cycles;
  return detail::excursions_variant_from_counts(cycles, total_visits);
}

}  // namespace trng::stat::oracle
