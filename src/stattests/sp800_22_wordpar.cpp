// Word-parallel kernels for the counting-style SP 800-22 tests: frequency,
// block frequency, runs, longest run, cumulative sums, random excursions
// (+ variant), rank. See sp800_22_wordpar.hpp for the bit-identity
// contract; every kernel here reduces the stream to the same integers the
// bit-serial oracle produces and hands them to sp800_22_detail.cpp.
#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <vector>

#include "common/units.hpp"
#include "stattests/sp800_22_detail.hpp"
#include "stattests/sp800_22_wordpar.hpp"

namespace trng::stat::wordpar {

namespace {

/// Byte `k` of the packed stream (bits 8k .. 8k+7, LSB-first).
unsigned byte_at(const std::vector<std::uint64_t>& words, std::size_t k) {
  return static_cast<unsigned>((words[k >> 3] >> ((k & 7) * 8)) & 0xFF);
}

}  // namespace

TestResult frequency_test(const common::BitStream& bits, Gating gating) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_frequency(n, gating)) return *gated;
  return detail::frequency_from_counts(n, bits.count_ones());
}

TestResult block_frequency_test(const common::BitStream& bits,
                                std::size_t block_len, Gating gating) {
  const std::size_t n = bits.size();
  const std::size_t m =
      block_len == 0 ? detail::block_frequency_auto_m(n) : block_len;
  if (auto gated = detail::gate_block_frequency(n, m, gating)) return *gated;
  const std::size_t big_n = n / m;
  std::vector<std::size_t> ones_per_block(big_n, 0);
  for (std::size_t b = 0; b < big_n; ++b) {
    ones_per_block[b] = bits.count_ones(b * m, m);
  }
  return detail::block_frequency_from_counts(m, ones_per_block);
}

TestResult runs_test(const common::BitStream& bits, Gating gating) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_runs(n, gating)) return *gated;
  const std::size_t ones = bits.count_ones();
  const auto& w = bits.words();
  std::size_t transitions = 0;
  if (n >= 2) {
    const std::size_t last_pair = n - 2;  // last k with a (k, k+1) pair
    for (std::size_t i = 0; i < w.size(); ++i) {
      const std::size_t base = i << 6;
      if (base > last_pair) break;
      // Bit j of x marks an intra-word transition between bits j and j+1;
      // bit 63 of x pairs across the word boundary and is handled below.
      const std::uint64_t x = w[i] ^ (w[i] >> 1);
      const std::size_t hi = std::min<std::size_t>(62, last_pair - base);
      transitions += static_cast<std::size_t>(
          std::popcount(x & (~0ULL >> (63 - hi))));
      if (base + 63 <= last_pair) {
        transitions += ((w[i] >> 63) ^ w[i + 1]) & 1ULL;
      }
    }
  }
  return detail::runs_from_counts(n, ones, transitions);
}

namespace {

/// Longest run of ones per byte value (blocks of M = 8 are byte-aligned;
/// run lengths are invariant under the LSB/MSB bit-order reversal).
const std::array<std::uint8_t, 256>& longest_run_byte_lut() {
  static const std::array<std::uint8_t, 256> lut = [] {
    std::array<std::uint8_t, 256> t{};
    for (unsigned b = 0; b < 256; ++b) {
      unsigned best = 0;
      unsigned run = 0;
      for (unsigned j = 0; j < 8; ++j) {
        if (b & (1u << j)) {
          ++run;
          best = std::max(best, run);
        } else {
          run = 0;
        }
      }
      t[b] = static_cast<std::uint8_t>(best);
    }
    return t;
  }();
  return lut;
}

/// Longest run of ones in [start, start + len), chunked 64 bits at a time:
/// combine the carry run with the chunk's leading ones, take the in-chunk
/// maximum via the y &= y << 1 reduction, carry out the trailing ones.
unsigned longest_run_ones(const common::BitStream& bits, std::size_t start,
                          std::size_t len) {
  unsigned longest = 0;
  unsigned run = 0;
  std::size_t off = 0;
  while (off < len) {
    const unsigned valid =
        static_cast<unsigned>(std::min<std::size_t>(64, len - off));
    const std::uint64_t full =
        valid == 64 ? ~0ULL : ((1ULL << valid) - 1);
    const std::uint64_t v = bits.word_at(start + off) & full;
    if (v == full) {
      run += valid;
      longest = std::max(longest, run);
    } else {
      const unsigned lead = static_cast<unsigned>(std::countr_one(v));
      longest = std::max(longest, run + lead);
      std::uint64_t y = v;
      unsigned in_chunk = 0;
      while (y) {
        y &= y << 1;
        ++in_chunk;
      }
      longest = std::max(longest, in_chunk);
      run = static_cast<unsigned>(std::countl_one(v << (64 - valid)));
    }
    off += valid;
  }
  return longest;
}

}  // namespace

TestResult longest_run_test(const common::BitStream& bits) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_longest_run(n)) return *gated;
  const auto regime = detail::longest_run_regime(n);
  const std::size_t block_len = regime->block_len;
  const std::size_t big_n = n / block_len;
  std::vector<unsigned> per_block(big_n, 0);
  if (block_len == 8) {
    const auto& lut = longest_run_byte_lut();
    const auto& w = bits.words();
    for (std::size_t b = 0; b < big_n; ++b) per_block[b] = lut[byte_at(w, b)];
  } else {
    for (std::size_t b = 0; b < big_n; ++b) {
      per_block[b] = longest_run_ones(bits, b * block_len, block_len);
    }
  }
  return detail::longest_run_from_counts(*regime, big_n, per_block);
}

namespace {

/// Per-byte walk summaries for the cumulative-sums test: net +-1 delta and
/// the max/min partial sums over the byte's 8 steps, for both bit orders
/// (forward = bit 0 first, reverse = bit 7 first).
struct CusumLut {
  std::array<std::int8_t, 256> delta;
  std::array<std::int8_t, 256> maxp;
  std::array<std::int8_t, 256> minp;
  std::array<std::int8_t, 256> maxp_rev;
  std::array<std::int8_t, 256> minp_rev;
};

const CusumLut& cusum_lut() {
  static const CusumLut lut = [] {
    CusumLut t{};
    for (unsigned b = 0; b < 256; ++b) {
      int s = 0, mx = -8, mn = 8;
      for (unsigned j = 0; j < 8; ++j) {
        s += (b & (1u << j)) ? 1 : -1;
        mx = std::max(mx, s);
        mn = std::min(mn, s);
      }
      t.delta[b] = static_cast<std::int8_t>(s);
      t.maxp[b] = static_cast<std::int8_t>(mx);
      t.minp[b] = static_cast<std::int8_t>(mn);
      s = 0;
      mx = -8;
      mn = 8;
      for (unsigned j = 8; j-- > 0;) {
        s += (b & (1u << j)) ? 1 : -1;
        mx = std::max(mx, s);
        mn = std::min(mn, s);
      }
      t.maxp_rev[b] = static_cast<std::int8_t>(mx);
      t.minp_rev[b] = static_cast<std::int8_t>(mn);
    }
    return t;
  }();
  return lut;
}

}  // namespace

TestResult cumulative_sums_test(const common::BitStream& bits, Gating gating) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_cusum(n, gating)) return *gated;
  const auto& lut = cusum_lut();
  const auto& w = bits.words();
  const std::size_t nbytes = n >> 3;

  long s = 0;
  long z_fwd = 0;
  for (std::size_t k = 0; k < nbytes; ++k) {
    const unsigned byte = byte_at(w, k);
    z_fwd = std::max(z_fwd, s + lut.maxp[byte]);
    z_fwd = std::max(z_fwd, -(s + lut.minp[byte]));
    s += lut.delta[byte];
  }
  for (std::size_t i = nbytes * 8; i < n; ++i) {
    s += bits[i] ? 1 : -1;
    z_fwd = std::max(z_fwd, std::labs(s));
  }

  long s_b = 0;
  long z_bwd = 0;
  for (std::size_t i = n; i-- > nbytes * 8;) {
    s_b += bits[i] ? 1 : -1;
    z_bwd = std::max(z_bwd, std::labs(s_b));
  }
  for (std::size_t k = nbytes; k-- > 0;) {
    const unsigned byte = byte_at(w, k);
    z_bwd = std::max(z_bwd, s_b + lut.maxp_rev[byte]);
    z_bwd = std::max(z_bwd, -(s_b + lut.minp_rev[byte]));
    s_b += lut.delta[byte];
  }
  return detail::cusum_from_extrema(n, z_fwd, z_bwd);
}

TestResult random_excursions_test(const common::BitStream& bits) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_excursions(n, "random_excursions")) {
    return *gated;
  }
  std::array<std::array<std::size_t, 6>, 8> visits{};
  std::array<std::size_t, 8> cycle_visits{};
  std::size_t cycles = 0;
  auto close_cycle = [&]() {
    for (std::size_t s = 0; s < 8; ++s) {
      const std::size_t k = std::min<std::size_t>(cycle_visits[s], 5);
      ++visits[s][k];
      cycle_visits[s] = 0;
    }
    ++cycles;
  };
  long walk = 0;
  auto step = [&](bool bit) {
    walk += bit ? 1 : -1;
    if (walk == 0) {
      close_cycle();
    } else if (walk >= -4 && walk <= 4) {
      const int idx = walk < 0 ? static_cast<int>(walk) + 4
                               : static_cast<int>(walk) + 3;
      ++cycle_visits[static_cast<std::size_t>(idx)];
    }
  };
  const auto& w = bits.words();
  const std::size_t full_words = n >> 6;
  for (std::size_t i = 0; i < full_words; ++i) {
    if (walk > 68 || walk < -68) {
      // Every partial sum across this word stays outside [-4, 4]: no state
      // visits, no zero crossings. Apply the net delta and skip the bits.
      walk += 2 * static_cast<long>(std::popcount(w[i])) - 64;
      continue;
    }
    const std::uint64_t v = w[i];
    for (unsigned j = 0; j < 64; ++j) step((v >> j) & 1ULL);
  }
  const std::size_t tail_start =
      common::words_to_bits(common::Words{full_words}).count();
  for (std::size_t i = tail_start; i < n; ++i) step(bits[i]);
  if (walk != 0) close_cycle();  // final partial cycle counts per the spec
  return detail::excursions_from_counts(cycles, visits);
}

TestResult random_excursions_variant_test(const common::BitStream& bits) {
  const std::size_t n = bits.size();
  if (auto gated = detail::gate_excursions(n, "random_excursions_variant")) {
    return *gated;
  }
  std::array<std::size_t, 19> total_visits{};
  std::size_t cycles = 0;
  long walk = 0;
  auto step = [&](bool bit) {
    walk += bit ? 1 : -1;
    if (walk == 0) {
      ++cycles;
    } else if (walk >= -9 && walk <= 9) {
      ++total_visits[static_cast<std::size_t>(walk + 9)];
    }
  };
  const auto& w = bits.words();
  const std::size_t full_words = n >> 6;
  for (std::size_t i = 0; i < full_words; ++i) {
    if (walk > 73 || walk < -73) {
      // Partial sums stay outside [-9, 9] for the whole word.
      walk += 2 * static_cast<long>(std::popcount(w[i])) - 64;
      continue;
    }
    const std::uint64_t v = w[i];
    for (unsigned j = 0; j < 64; ++j) step((v >> j) & 1ULL);
  }
  const std::size_t tail_start =
      common::words_to_bits(common::Words{full_words}).count();
  for (std::size_t i = tail_start; i < n; ++i) step(bits[i]);
  if (walk != 0) ++cycles;
  return detail::excursions_variant_from_counts(cycles, total_visits);
}

int gf2_rank_rowechelon(const std::uint64_t* rows, int nrows) {
  // Pivot rows indexed by leading (highest set) bit position. Inserting a
  // row costs one XOR per already-found pivot above its leading bit —
  // against Gauss-Jordan's per-column pivot search plus full-matrix sweep,
  // this touches each row only until it dies or lands. The echelon basis
  // spans the same row space, so the rank (all the chi-square math
  // consumes) is the rank of the matrix.
  std::uint64_t pivot[64] = {};
  int rank = 0;
  for (int r = 0; r < nrows; ++r) {
    std::uint64_t row = rows[r];
    while (row != 0) {
      const int lead = 63 - std::countl_zero(row);
      if (pivot[lead] == 0) {
        pivot[lead] = row;
        ++rank;
        break;
      }
      row ^= pivot[lead];
    }
  }
  return rank;
}

TestResult rank_test(const common::BitStream& bits) {
  if (auto gated = detail::gate_rank(bits.size())) return *gated;
  constexpr std::size_t kM = 32;
  constexpr std::size_t kBitsPerMatrix = kM * kM;
  const std::size_t big_n = bits.size() / kBitsPerMatrix;
  std::size_t f_full = 0, f_minus1 = 0;
  std::uint64_t rows[kM];
  for (std::size_t m = 0; m < big_n; ++m) {
    for (std::size_t i = 0; i < kM; ++i) {
      // Row column j is bit j of the row (row |= 1 << j from bits[... + j]):
      // exactly the LSB-first 32-bit window at the row's offset.
      rows[i] = bits.word_at(m * kBitsPerMatrix + i * kM) & 0xFFFFFFFFULL;
    }
    const int rank = gf2_rank_rowechelon(rows, static_cast<int>(kM));
    if (rank == static_cast<int>(kM)) {
      ++f_full;
    } else if (rank == static_cast<int>(kM) - 1) {
      ++f_minus1;
    }
  }
  return detail::rank_from_counts(big_n, f_full, f_minus1);
}

}  // namespace trng::stat::wordpar
