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
#include <utility>
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

/// Counts of the n overlapping m-bit windows with cyclic extension,
/// indexed by the MSB-first pattern value as Section 2.11.4 reads it. The
/// windows that do not wrap are read LSB-first, 64 positions at a time
/// from two word reads (as in the non-overlapping template kernel), and
/// tallied; the histogram is then permuted in place by per-value bit
/// reversal. The permutation is a bijection, so the MSB-indexed counts —
/// and therefore the summation order inside psi_squared_from_counts /
/// phi_from_counts — match a bit-serial MSB-first window exactly.
std::vector<std::size_t> cyclic_window_histogram(const common::BitStream& bits,
                                                 unsigned m) {
  const std::size_t n = bits.size();
  const std::uint64_t mask = (1ULL << m) - 1;
  std::vector<std::size_t> hist(std::size_t{1} << m, 0);
  const std::size_t npos = n >= m ? n - m + 1 : 0;
  for (std::size_t cbase = 0; cbase < npos; cbase += 64) {
    const std::uint64_t lo = bits.word_at(cbase);
    const std::uint64_t hi = bits.word_at(cbase + 64) << 1;
    const std::size_t valid = std::min<std::size_t>(64, npos - cbase);
    for (unsigned k = 0; k < valid; ++k) {
      ++hist[((lo >> k) | (hi << (63 - k))) & mask];
    }
  }
  for (std::size_t i = npos; i < n; ++i) {  // cyclic extension
    std::uint64_t v = 0;
    for (unsigned j = 0; j < m; ++j) {
      v |= static_cast<std::uint64_t>(bits[(i + j) % n] ? 1 : 0) << j;
    }
    ++hist[v];
  }
  for (std::size_t v = 0; v < hist.size(); ++v) {
    const std::size_t r = bit_reverse(static_cast<std::uint32_t>(v), m);
    if (r > v) std::swap(hist[v], hist[r]);
  }
  return hist;
}

/// Turns the m-bit histogram into the (m-1)-bit one, in place. With the
/// cyclic extension the (m-1)-bit window at i is the m-bit window at i
/// without its last bit, the lowest bit of the MSB-first value, so each
/// shorter bin is the exact sum of an adjacent pair.
void drop_last_bit(std::vector<std::size_t>& hist) {
  const std::size_t half = hist.size() / 2;
  for (std::size_t v = 0; v < half; ++v) {
    hist[v] = hist[2 * v] + hist[2 * v + 1];
  }
  hist.resize(half);
}

}  // namespace

TestResult serial_test(const common::BitStream& bits, unsigned m,
                       Gating gating) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_serial(n, m, gating)) return *gated;
  std::vector<std::size_t> hist = cyclic_window_histogram(bits, m);
  const double psi_m = detail::psi_squared_from_counts(n, hist);
  drop_last_bit(hist);
  const double psi_m1 = detail::psi_squared_from_counts(n, hist);
  drop_last_bit(hist);
  // psi^2_0 = 0 by definition, the value of the oracle's empty histogram.
  const double psi_m2 = m > 2 ? detail::psi_squared_from_counts(n, hist) : 0.0;
  return detail::serial_from_psis(m, psi_m, psi_m1, psi_m2);
}

TestResult approximate_entropy_test(const common::BitStream& bits, unsigned m,
                                    Gating gating) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_approximate_entropy(n, m, gating)) {
    return *gated;
  }
  std::vector<std::size_t> hist = cyclic_window_histogram(bits, m + 1);
  const double phi_m1 = detail::phi_from_counts(n, hist);
  drop_last_bit(hist);
  const double phi_m = detail::phi_from_counts(n, hist);
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
  // One pass of LSB-first m-bit windows per block into a 2^m-entry
  // histogram; template t's count is the bin of its bit-reversed value
  // (window bit j is template bit m-1-j). Section 2.7.4's scan jumps m bits
  // past a hit, so it counts non-overlapping matches, but an aperiodic
  // template has no border — no proper prefix equals a suffix — so two of
  // its matches can never overlap, and every match counts.
  const std::uint64_t mask = (1ULL << tpl_len) - 1;
  const std::size_t npos = block_len - tpl_len + 1;
  std::vector<std::array<std::size_t, kBlocks>> w(templates.size());
  std::vector<std::size_t> hist(std::size_t{1} << tpl_len);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const std::size_t base = b * block_len;
    std::fill(hist.begin(), hist.end(), 0);
    for (std::size_t cbase = 0; cbase < npos; cbase += 64) {
      const std::uint64_t lo = bits.word_at(base + cbase);
      const std::uint64_t hi = bits.word_at(base + cbase + 64) << 1;
      const std::size_t valid = std::min<std::size_t>(64, npos - cbase);
      for (unsigned k = 0; k < valid; ++k) {
        ++hist[((lo >> k) | (hi << (63 - k))) & mask];
      }
    }
    for (std::size_t t = 0; t < templates.size(); ++t) {
      w[t][b] = hist[bit_reverse(templates[t], tpl_len)];
    }
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

namespace {

/// Transposes a 64 x 64 bit matrix in place: afterwards bit b of a[k] is
/// the former bit k of a[b].
void transpose64(std::uint64_t* a) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
      a[k] ^= t << j;
      a[k + j] ^= t;
    }
  }
}

/// The discrepancy word of Berlekamp–Massey step: the XOR over j < count of
/// c_j & s_j, in four independent accumulators so that the loop is not
/// one long dependency chain.
std::uint64_t discrepancy(const std::uint64_t* c, const std::uint64_t* s,
                          std::size_t count) {
  std::uint64_t d0 = 0, d1 = 0, d2 = 0, d3 = 0;
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    d0 ^= c[j] & s[j];
    d1 ^= c[j + 1] & s[j + 1];
    d2 ^= c[j + 2] & s[j + 2];
    d3 ^= c[j + 3] & s[j + 3];
  }
  for (; j < count; ++j) d0 ^= c[j] & s[j];
  return (d0 ^ d1) ^ (d2 ^ d3);
}

/// The Berlekamp–Massey C/D update over coefficients [0, count), count
/// even: C ^= D in the blocks of `d`, and D takes C's old coefficients in
/// the blocks of `grow`. Kept out of line, with restrict-qualified operands
/// and the two coefficients of each step written out: gcc -O2 then runs
/// them in one SSE2 instruction (as an inner loop over the pair it stays
/// scalar).
[[gnu::noinline]] void update_c_d(std::uint64_t* __restrict c,
                                  std::uint64_t* __restrict dv,
                                  std::uint64_t d, std::uint64_t grow,
                                  std::size_t count) {
  for (std::size_t j = 0; j < count; j += 2) {
    const std::uint64_t c0 = c[j], c1 = c[j + 1];
    const std::uint64_t e0 = dv[j], e1 = dv[j + 1];
    c[j] = c0 ^ (e0 & d);
    c[j + 1] = c1 ^ (e1 & d);
    dv[j] = (c0 & grow) | (e0 & ~grow);
    dv[j + 1] = (c1 & grow) | (e1 & ~grow);
  }
}

/// Berlekamp–Massey on `lanes` <= 64 blocks of `len` bits at once, block b
/// starting at bit begin + b * len and living in bit b of every word: the
/// sequence, C and D = x^m B are arrays of 64-bit words indexed by
/// coefficient, so one word operation steps all blocks. Writes block b's
/// linear complexity to lengths[b].
///
/// Per step i, with d the discrepancy word: C ^= d & D in every block, and
/// D becomes x * (C_old in blocks whose L grows, D_old elsewhere). D is
/// stored at a moving offset into `dbuf`, so that multiplication by x is one
/// decrement for all blocks. Both loops stop at the largest new L among the
/// blocks with d = 1: deg C <= L, and deg x^m B <= i + 1 - L, which is at
/// most the new L of a block that updates, so every coefficient above that
/// bound is zero in C and D alike (so is the one past it that the update
/// runs over when it rounds its count up to even). Unused lanes hold
/// all-zero blocks, whose discrepancy is always 0.
void berlekamp_massey_lanes(const common::BitStream& bits, std::size_t begin,
                            std::size_t len, unsigned lanes,
                            std::size_t* lengths) {
  // srev[len - 1 - i] = bit i of every block, so the discrepancy's s_{i-j},
  // j = 0, 1, ..., are the contiguous words srev[len - 1 - i + j]. Bits a
  // row reads past its block's end transpose into rows that are not kept.
  std::vector<std::uint64_t> srev(len);
  std::array<std::uint64_t, 64> rows{};
  for (std::size_t i0 = 0; i0 < len; i0 += 64) {
    for (unsigned b = 0; b < 64; ++b) {
      rows[b] = b < lanes ? bits.word_at(begin + b * len + i0) : 0;
    }
    transpose64(rows.data());
    const std::size_t count = std::min<std::size_t>(64, len - i0);
    for (std::size_t k = 0; k < count; ++k) srev[len - 1 - (i0 + k)] = rows[k];
  }

  std::vector<std::uint64_t> c(len + 2, 0);
  std::vector<std::uint64_t> dbuf(2 * len + 3, 0);
  std::array<std::size_t, 64> l{};
  c[0] = ~0ULL;  // C = 1
  std::size_t off = len;
  dbuf[off + 1] = ~0ULL;  // D = x * B with B = 1
  std::size_t max_l = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint64_t* s = &srev[len - 1 - i];
    const std::uint64_t d = discrepancy(c.data(), s, std::min(max_l, i) + 1);
    if (d != 0) {
      std::uint64_t grow = 0;
      std::size_t hi = 0;
      for (std::uint64_t w = d; w != 0; w &= w - 1) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(w));
        const std::size_t lb = l[b];
        const bool g = 2 * lb <= i;
        const std::size_t lnew = g ? i + 1 - lb : lb;
        l[b] = lnew;
        grow |= static_cast<std::uint64_t>(g) << b;
        hi = std::max(hi, lnew);
      }
      max_l = std::max(max_l, hi);
      update_c_d(c.data(), &dbuf[off], d, grow, (hi + 2) & ~std::size_t{1});
    }
    --off;
  }
  for (unsigned b = 0; b < lanes; ++b) lengths[b] = l[b];
}

}  // namespace

TestResult linear_complexity_test(const common::BitStream& bits,
                                  std::size_t block_len) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_linear_complexity(n, block_len)) {
    return *gated;
  }
  const std::size_t big_n = n / block_len;
  std::vector<std::size_t> lengths(big_n, 0);
  for (std::size_t b = 0; b < big_n; b += 64) {
    const auto lanes =
        static_cast<unsigned>(std::min<std::size_t>(64, big_n - b));
    berlekamp_massey_lanes(bits, b * block_len, block_len, lanes, &lengths[b]);
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
