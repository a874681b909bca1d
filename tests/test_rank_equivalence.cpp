// Equivalence suite for the bitsliced GF(2) rank kernel behind the
// word-parallel SP 800-22 rank test: wordpar::gf2_rank_rowechelon must
// return the same rank as the Gauss-Jordan oracle::gf2_rank on every
// matrix, and the whole wordpar rank_test must stay bit-identical to the
// oracle's (counts-only structure: same rank per matrix => same category
// counts => same p-value doubles). TL008 keeps this file in sync with the
// kernel declaration in sp800_22_wordpar.hpp.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sp800_22_oracle.hpp"
#include "stattests/sp800_22_wordpar.hpp"

namespace trng::stat {
namespace {

constexpr int kDim = 32;  // the rank test's matrix dimension

/// Oracle rank for 32-bit-wide packed rows.
int reference_rank(const std::vector<std::uint64_t>& rows) {
  return oracle::gf2_rank(rows, kDim);
}

int echelon_rank(const std::vector<std::uint64_t>& rows) {
  return wordpar::gf2_rank_rowechelon(rows.data(),
                                      static_cast<int>(rows.size()));
}

TEST(RankEquivalence, StructuredMatrices) {
  // Identity: full rank.
  std::vector<std::uint64_t> ident(kDim);
  for (int i = 0; i < kDim; ++i) ident[static_cast<std::size_t>(i)] = 1ULL << i;
  EXPECT_EQ(echelon_rank(ident), kDim);
  EXPECT_EQ(echelon_rank(ident), reference_rank(ident));

  // All-zero: rank 0.
  const std::vector<std::uint64_t> zero(kDim, 0);
  EXPECT_EQ(echelon_rank(zero), 0);
  EXPECT_EQ(echelon_rank(zero), reference_rank(zero));

  // Every row identical and nonzero: rank 1.
  const std::vector<std::uint64_t> same(kDim, 0xDEADBEEFULL);
  EXPECT_EQ(echelon_rank(same), 1);
  EXPECT_EQ(echelon_rank(same), reference_rank(same));

  // Identity with one duplicated row: rank dim - 1.
  auto dup = ident;
  dup[5] = dup[17];
  EXPECT_EQ(echelon_rank(dup), kDim - 1);
  EXPECT_EQ(echelon_rank(dup), reference_rank(dup));

  // Upper-triangular ones (row i = all bits >= i): full rank, and every
  // row forces a long reduction chain in the echelon kernel.
  std::vector<std::uint64_t> tri(kDim);
  constexpr std::uint64_t kColMask = ~0ULL >> (64 - kDim);
  for (int i = 0; i < kDim; ++i) {
    tri[static_cast<std::size_t>(i)] = (kColMask << i) & kColMask;
  }
  EXPECT_EQ(echelon_rank(tri), reference_rank(tri));
  EXPECT_EQ(echelon_rank(tri), kDim);

  // Rank-deficient by construction: rows are XOR combinations of 3 basis
  // vectors, so rank <= 3 regardless of how many rows there are.
  std::vector<std::uint64_t> low(kDim);
  const std::uint64_t basis[3] = {0x80000001ULL, 0x0F0F0F0FULL,
                                  0x12345678ULL};
  for (int i = 0; i < kDim; ++i) {
    std::uint64_t r = 0;
    for (int b = 0; b < 3; ++b) {
      if ((i >> b) & 1) r ^= basis[b];
    }
    low[static_cast<std::size_t>(i)] = r;
  }
  EXPECT_EQ(echelon_rank(low), reference_rank(low));
  EXPECT_LE(echelon_rank(low), 3);
}

TEST(RankEquivalence, RandomMatricesAgreeWithScalar) {
  common::Xoshiro256StarStar rng(2026);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint64_t> rows(kDim);
    for (auto& r : rows) r = rng.next() & (~0ULL >> (64 - kDim));
    // Occasionally inject linear dependence so the off-full-rank
    // categories (the test's f_{m-1} and remainder bins) are exercised.
    if (trial % 3 == 0) rows[31] = rows[0] ^ rows[1];
    if (trial % 7 == 0) rows[30] = 0;
    EXPECT_EQ(echelon_rank(rows), reference_rank(rows)) << "trial " << trial;
  }
}

TEST(RankEquivalence, FewerRowsThanColumns) {
  // The kernel takes nrows explicitly; partial matrices must also agree
  // (rank of the first k rows == oracle rank of those rows).
  common::Xoshiro256StarStar rng(99);
  for (int k = 1; k <= kDim; k += 5) {
    std::vector<std::uint64_t> rows(static_cast<std::size_t>(k));
    for (auto& r : rows) r = rng.next() & (~0ULL >> (64 - kDim));
    EXPECT_EQ(wordpar::gf2_rank_rowechelon(rows.data(), k),
              oracle::gf2_rank(rows, kDim))
        << "k = " << k;
  }
}

TEST(RankEquivalence, WholeRankTestBitIdentical) {
  // End to end: the wordpar rank test and the oracle rank test must
  // produce the same TestResult doubles on random streams of several
  // sizes (including below the applicability gate).
  common::Xoshiro256StarStar rng(55);
  for (const std::size_t nbits :
       {std::size_t{1000}, std::size_t{40960}, std::size_t{262144}}) {
    common::BitStream bits;
    bits.reserve(nbits + 64);
    for (std::size_t w = 0; w < nbits / 64 + 1; ++w) {
      bits.append_bits(rng.next(), 64);
    }
    bits = bits.slice(0, nbits);
    const TestResult ref = oracle::rank_test(bits);
    const TestResult got = wordpar::rank_test(bits);
    EXPECT_EQ(ref.name, got.name);
    EXPECT_EQ(ref.applicable, got.applicable);
    EXPECT_EQ(ref.note, got.note);
    ASSERT_EQ(ref.p_values.size(), got.p_values.size());
    for (std::size_t j = 0; j < ref.p_values.size(); ++j) {
      EXPECT_EQ(ref.p_values[j], got.p_values[j]) << "nbits " << nbits;
    }
  }
}

}  // namespace
}  // namespace trng::stat
