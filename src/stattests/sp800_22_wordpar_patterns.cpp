// Word-parallel kernels for the pattern-style SP 800-22 tests: serial,
// approximate entropy, universal, template matching, linear complexity.
// All window extraction goes through BitStream::word_at (packed LSB-first
// 64-bit reads at arbitrary bit offsets); see sp800_22_wordpar.hpp for the
// bit-identity contract.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "stattests/sp800_22_detail.hpp"
#include "stattests/sp800_22_wordpar.hpp"

namespace trng::stat::wordpar {

namespace {

const std::array<std::uint8_t, 256>& bit_reverse_byte_lut() {
  static const std::array<std::uint8_t, 256> lut = [] {
    std::array<std::uint8_t, 256> t{};
    for (unsigned b = 0; b < 256; ++b) {
      unsigned r = 0;
      for (unsigned j = 0; j < 8; ++j) {
        if (b & (1u << j)) r |= 1u << (7 - j);
      }
      t[b] = static_cast<std::uint8_t>(r);
    }
    return t;
  }();
  return lut;
}

/// Reverses the low `m` bits of v (m <= 32).
std::uint32_t bit_reverse(std::uint32_t v, unsigned m) {
  const auto& lut = bit_reverse_byte_lut();
  const std::uint32_t r = (static_cast<std::uint32_t>(lut[v & 0xFF]) << 24) |
                          (static_cast<std::uint32_t>(lut[(v >> 8) & 0xFF]) << 16) |
                          (static_cast<std::uint32_t>(lut[(v >> 16) & 0xFF]) << 8) |
                          static_cast<std::uint32_t>(lut[(v >> 24) & 0xFF]);
  return r >> (32 - m);
}

/// Counts of all overlapping m-bit patterns with cyclic extension, indexed
/// by the MSB-first pattern value as Section 2.11.4 reads it: windows are
/// extracted LSB-first in one word_at read each, tallied, then the
/// histogram is permuted by per-value bit reversal. The permutation is a
/// bijection, so the MSB-indexed counts — and therefore the summation order
/// inside psi_squared_from_counts / phi_from_counts — match a bit-serial
/// MSB-first window exactly.
std::vector<std::size_t> pattern_counts_words(const common::BitStream& bits,
                                              unsigned m) {
  if (m == 0) return {};
  const std::size_t n = bits.size();
  const std::uint64_t mask = (1ULL << m) - 1;
  std::vector<std::size_t> counts_lsb(std::size_t{1} << m, 0);
  const std::size_t non_wrapping = n >= m ? n - m + 1 : 0;
  for (std::size_t i = 0; i < non_wrapping; ++i) {
    ++counts_lsb[bits.word_at(i) & mask];
  }
  for (std::size_t i = non_wrapping; i < n; ++i) {  // cyclic extension
    std::uint64_t v = 0;
    for (unsigned j = 0; j < m; ++j) {
      v |= static_cast<std::uint64_t>(bits[(i + j) % n] ? 1 : 0) << j;
    }
    ++counts_lsb[v];
  }
  std::vector<std::size_t> counts(counts_lsb.size());
  for (std::size_t v = 0; v < counts_lsb.size(); ++v) {
    counts[bit_reverse(static_cast<std::uint32_t>(v), m)] = counts_lsb[v];
  }
  return counts;
}

}  // namespace

TestResult serial_test(const common::BitStream& bits, unsigned m,
                       Gating gating) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_serial(n, m, gating)) return *gated;
  const double psi_m =
      detail::psi_squared_from_counts(n, pattern_counts_words(bits, m));
  const double psi_m1 =
      detail::psi_squared_from_counts(n, pattern_counts_words(bits, m - 1));
  const double psi_m2 =
      detail::psi_squared_from_counts(n, pattern_counts_words(bits, m - 2));
  return detail::serial_from_psis(m, psi_m, psi_m1, psi_m2);
}

TestResult approximate_entropy_test(const common::BitStream& bits, unsigned m,
                                    Gating gating) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_approximate_entropy(n, m, gating)) {
    return *gated;
  }
  const double phi_m =
      detail::phi_from_counts(n, pattern_counts_words(bits, m));
  const double phi_m1 =
      detail::phi_from_counts(n, pattern_counts_words(bits, m + 1));
  return detail::approximate_entropy_from_phis(n, m, phi_m, phi_m1);
}

namespace {

/// Accumulated log2 distance sum over blocks [q, blocks) of `big_l` bits
/// (Section 2.9.4), with blocks [0, q) initializing the table. Block values
/// are read LSB-first, a bit-reversal relabeling of the spec's MSB-first
/// table index. The statistic only depends on distances between equal
/// block values, and relabeling is a bijection, so every distance (and the
/// order they are summed in) is the spec's.
double distance_log_sum(const common::BitStream& bits, unsigned big_l,
                        std::size_t q, std::size_t blocks) {
  const std::uint64_t mask = (1ULL << big_l) - 1;
  std::vector<std::size_t> last_seen(std::size_t{1} << big_l, 0);
  for (std::size_t b = 0; b < q; ++b) {
    last_seen[bits.word_at(b * big_l) & mask] = b + 1;
  }
  double sum = 0.0;
  for (std::size_t b = q; b < blocks; ++b) {
    const std::size_t v = bits.word_at(b * big_l) & mask;
    sum += std::log2(static_cast<double>(b + 1 - last_seen[v]));
    last_seen[v] = b + 1;
  }
  return sum;
}

}  // namespace

TestResult universal_test(const common::BitStream& bits) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_universal(n)) return *gated;
  const detail::UniversalRow* row = detail::universal_row(n);
  const unsigned big_l = row->big_l;
  const std::size_t q = std::size_t{10} << big_l;  // initialization blocks
  const std::size_t blocks = n / big_l;
  const std::size_t k = blocks - q;  // test blocks
  const double sum = distance_log_sum(bits, big_l, q, blocks);
  return detail::universal_from_sum(*row, sum, k);
}

UniversalStatistic universal_statistic(const common::BitStream& bits,
                                       unsigned big_l, std::size_t q,
                                       double expected, double variance) {
  if (big_l == 0 || big_l > 16) {
    throw std::invalid_argument("universal_statistic: L must be in [1, 16]");
  }
  const std::size_t blocks = bits.size() / big_l;
  if (blocks <= q) {
    throw std::invalid_argument(
        "universal_statistic: need more than Q complete blocks");
  }
  const std::size_t k = blocks - q;
  const double sum = distance_log_sum(bits, big_l, q, blocks);
  return detail::universal_statistic_from_sum(sum, k, big_l, expected,
                                              variance);
}

TestResult non_overlapping_template_test(const common::BitStream& bits,
                                         unsigned tpl_len) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_non_overlapping_template(n, tpl_len)) {
    return *gated;
  }
  constexpr std::size_t kBlocks = 8;
  const std::size_t block_len = n / kBlocks;
  const auto templates = aperiodic_templates(tpl_len);
  std::vector<std::array<std::size_t, kBlocks>> w(templates.size());
  // Per chunk of 64 window positions: build the m shifted-stream words
  // S[j] (bit q of S[j] = stream bit base+q+j) once, then each template's
  // overlapping-match mask is an AND of S[j] or ~S[j] per template bit.
  // Section 2.7.4's scan (slide one bit on a miss, jump m bits past a hit)
  // takes matches greedily left to right with the next accepted match >= m
  // positions later, which is the selection the greedy scan over the match
  // mask makes.
  std::vector<std::size_t> next_ok(templates.size());
  std::vector<std::size_t> count(templates.size());
  std::array<std::uint64_t, 16> s_words{};
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const std::size_t base = b * block_len;
    const std::size_t npos = block_len - tpl_len + 1;
    std::fill(next_ok.begin(), next_ok.end(), 0);
    std::fill(count.begin(), count.end(), 0);
    for (std::size_t cbase = 0; cbase < npos; cbase += 64) {
      for (unsigned j = 0; j < tpl_len; ++j) {
        s_words[j] = bits.word_at(base + cbase + j);
      }
      const std::size_t valid = std::min<std::size_t>(64, npos - cbase);
      const std::uint64_t vmask =
          valid == 64 ? ~0ULL : ((1ULL << valid) - 1);
      for (std::size_t t = 0; t < templates.size(); ++t) {
        const std::uint32_t tpl = templates[t];
        std::uint64_t match = vmask;
        for (unsigned j = 0; j < tpl_len && match != 0; ++j) {
          // Window bit j must equal template bit m-1-j (MSB-first value).
          match &= ((tpl >> (tpl_len - 1 - j)) & 1u) ? s_words[j]
                                                     : ~s_words[j];
        }
        while (match != 0) {
          const unsigned bit = static_cast<unsigned>(std::countr_zero(match));
          match &= match - 1;
          const std::size_t q = cbase + bit;
          if (q >= next_ok[t]) {
            ++count[t];
            next_ok[t] = q + tpl_len;
          }
        }
      }
    }
    for (std::size_t t = 0; t < templates.size(); ++t) w[t][b] = count[t];
  }
  return detail::non_overlapping_template_from_counts(n, tpl_len, w);
}

TestResult overlapping_template_test(const common::BitStream& bits,
                                     unsigned tpl_len) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_overlapping_template(n, tpl_len)) {
    return *gated;
  }
  constexpr std::size_t kBlockLen = 1032;
  const std::size_t big_n = n / kBlockLen;
  std::array<std::size_t, 6> v{};
  for (std::size_t b = 0; b < big_n; ++b) {
    const std::size_t base = b * kBlockLen;
    std::size_t count = 0;
    // Window starts 0..1023 within the block: exactly 16 full words of
    // all-ones match mask (an AND across the 9 shifted streams).
    for (std::size_t c = 0; c < 16; ++c) {
      std::uint64_t a = ~0ULL;
      for (unsigned j = 0; j < tpl_len; ++j) {
        a &= bits.word_at(base + c * 64 + j);
      }
      count += static_cast<std::size_t>(std::popcount(a));
    }
    v[std::min<std::size_t>(count, 5)]++;
  }
  return detail::overlapping_template_from_counts(big_n, v);
}

std::size_t berlekamp_massey_words(const common::BitStream& bits,
                                   std::size_t begin, std::size_t len) {
  if (len == 0) return 0;
  const std::size_t nw = (len + 63) / 64;
  // Reversed block: srev bit x = block bit len-1-x, so the discrepancy's
  // s_{i-j} terms for one c-word are a contiguous LSB-first window of srev.
  std::vector<std::uint64_t> srev(nw + 1, 0);
  for (std::size_t x = 0; x < len; ++x) {
    if (bits[begin + len - 1 - x]) srev[x >> 6] |= 1ULL << (x & 63);
  }
  auto srev_word_at = [&srev](std::size_t pos) -> std::uint64_t {
    const std::size_t k = pos >> 6;
    const unsigned off = static_cast<unsigned>(pos & 63);
    const std::uint64_t lo = k < srev.size() ? srev[k] : 0;
    const std::uint64_t hi = k + 1 < srev.size() ? srev[k + 1] : 0;
    return (lo >> off) | ((hi << 1) << (63 - off));
  };

  std::vector<std::uint64_t> c(nw, 0), b(nw, 0), t;
  c[0] = b[0] = 1;
  std::size_t l = 0;
  std::size_t m_shift = 1;
  for (std::size_t i = 0; i < len; ++i) {
    // d = parity of sum_{j=0..l} c_j s_{i-j}; the j=0 term is s_i itself
    // since c_0 = 1. Mask the last c-word to degree l so stray higher bits
    // can never contribute (l <= i, so every s index stays in range).
    unsigned acc = 0;
    const std::size_t lwords = (l >> 6) + 1;
    for (std::size_t tw = 0; tw < lwords; ++tw) {
      std::uint64_t cw = c[tw];
      if (tw == lwords - 1) {
        cw &= ~0ULL >> (63 - static_cast<unsigned>(l & 63));
      }
      if (cw == 0) continue;
      acc ^= static_cast<unsigned>(
          std::popcount(cw & srev_word_at(len - 1 - i + (tw << 6))));
    }
    if ((acc & 1) == 0) {
      ++m_shift;
      continue;
    }
    t = c;
    // c ^= b << m_shift, truncated to len bits (the connection polynomial
    // has degree < len: only c[j + m_shift] with j + m_shift < len flips).
    const std::size_t ws = m_shift >> 6;
    const unsigned bs = static_cast<unsigned>(m_shift & 63);
    for (std::size_t j = nw; j-- > ws;) {
      std::uint64_t v = b[j - ws] << bs;
      if (bs != 0 && j - ws > 0) v |= b[j - ws - 1] >> (64 - bs);
      c[j] ^= v;
    }
    const unsigned tail = static_cast<unsigned>(len & 63);
    if (tail != 0) c[nw - 1] &= ~0ULL >> (64 - tail);
    if (2 * l <= i) {
      l = i + 1 - l;
      b = t;
      m_shift = 1;
    } else {
      ++m_shift;
    }
  }
  return l;
}

TestResult linear_complexity_test(const common::BitStream& bits,
                                  std::size_t block_len) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_linear_complexity(n, block_len)) {
    return *gated;
  }
  const std::size_t big_n = n / block_len;
  std::vector<std::size_t> lengths(big_n, 0);
  for (std::size_t b = 0; b < big_n; ++b) {
    lengths[b] = berlekamp_massey_words(bits, b * block_len, block_len);
  }
  return detail::linear_complexity_from_lengths(block_len, lengths);
}

}  // namespace trng::stat::wordpar

namespace trng::stat {

std::vector<std::uint32_t> aperiodic_templates(unsigned m) {
  if (m == 0 || m > 20) {
    throw std::invalid_argument("aperiodic_templates: m must be in [1, 20]");
  }
  std::vector<std::uint32_t> out;
  const std::uint32_t count = 1u << m;
  for (std::uint32_t b = 0; b < count; ++b) {
    bool aperiodic = true;
    // b (MSB-first template of length m) must not match any proper shift of
    // itself: for shift s, the first m-s bits must differ somewhere from
    // the last m-s bits.
    for (unsigned s = 1; s < m && aperiodic; ++s) {
      const std::uint32_t mask = (1u << (m - s)) - 1u;
      if (((b >> s) & mask) == (b & mask)) aperiodic = false;
    }
    if (aperiodic) out.push_back(b);
  }
  return out;
}

}  // namespace trng::stat
