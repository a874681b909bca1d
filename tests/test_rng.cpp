// Unit tests for the deterministic simulation PRNGs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace trng::common {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, KnownVector) {
  // Reference values for seed 0 (Steele et al. / Vigna reference code).
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Xoshiro, DeterministicBySeed) {
  Xoshiro256StarStar a(42), b(42), c(43);
  bool any_diff = false;
  for (int i = 0; i < 64; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256StarStar rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, GaussianMoments) {
  Xoshiro256StarStar rng(5);
  constexpr int kN = 200000;
  double sum = 0.0, sum2 = 0.0, sum3 = 0.0, sum4 = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum2 += g * g;
    sum3 += g * g * g;
    sum4 += g * g * g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.01);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.02);
  EXPECT_NEAR(sum3 / kN, 0.0, 0.05);
  EXPECT_NEAR(sum4 / kN, 3.0, 0.1);  // kurtosis of the normal
}

TEST(Xoshiro, PolarBoundCoversTheExtremeInput) {
  // The largest polar output comes from the smallest accepted s: one
  // uniform a single 2^-52 grid step from zero, the other exactly zero.
  // Same arithmetic as next_gaussian().
  for (const double u : {0x1.0p-52, -0x1.0p-52}) {
    const double v = 0.0;
    const double s = u * u + v * v;
    const double g = u * std::sqrt(-2.0 * std::log(s) / s);
    EXPECT_LE(std::fabs(g), kPolarGaussianBound);
    EXPECT_GT(std::fabs(g), 12.0);  // the bound is tight, not padded
  }
}

TEST(Xoshiro, GaussianNeverExceedsPolarBound) {
  Xoshiro256StarStar rng(11);
  double largest = 0.0;
  for (int i = 0; i < 10'000'000; ++i) {
    largest = std::max(largest, std::fabs(rng.next_gaussian()));
  }
  EXPECT_LE(largest, kPolarGaussianBound);
}

TEST(Xoshiro, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Xoshiro256StarStar>);
  EXPECT_EQ(Xoshiro256StarStar::min(), 0u);
  EXPECT_EQ(Xoshiro256StarStar::max(), ~0ULL);
}

// fill_gaussian's contract: fill_gaussian(out, n) produces exactly the
// values of n successive next_gaussian() calls AND leaves the generator
// in the identical state (including the one-value polar cache). Every
// batched kernel in src/sim and src/core leans on this, so it is pinned
// with EXPECT_EQ on the doubles — bit identity, not closeness.

/// n consecutive scalar draws from a copy, for comparison.
std::vector<double> scalar_draws(Xoshiro256StarStar rng, std::size_t n) {
  std::vector<double> out(n);
  for (auto& v : out) v = rng.next_gaussian();
  return out;
}

class FillGaussian : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FillGaussian, MatchesScalarSequenceExactly) {
  const std::size_t n = GetParam();
  Xoshiro256StarStar batched(99);
  const auto expected = scalar_draws(batched, n + 3);
  std::vector<double> got(n);
  batched.fill_gaussian(got.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], expected[i]) << "i = " << i << ", n = " << n;
  }
  // End state identical: the next scalar draws continue the same stream
  // (covers the cached-vs-uncached half-pair distinction).
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(batched.next_gaussian(), expected[n + i]) << "tail " << i;
  }
}

// Odd and even n exercise both end states (odd leaves a value cached,
// even may not), 0/1 the degenerate edges, 256/257 a typical block size
// and its straddle.
INSTANTIATE_TEST_SUITE_P(Sizes, FillGaussian,
                         ::testing::Values(0, 1, 2, 3, 7, 8, 64, 255, 256,
                                           257));

TEST(Xoshiro, FillGaussianDrainsExistingCache) {
  // A scalar draw first, so the polar cache holds a value when the block
  // fill starts; the fill must emit that cached value as element 0.
  Xoshiro256StarStar batched(1234);
  (void)batched.next_gaussian();
  const auto expected = scalar_draws(batched, 12);
  double got[11];
  batched.fill_gaussian(got, 11);
  for (std::size_t i = 0; i < 11; ++i) EXPECT_EQ(got[i], expected[i]);
  EXPECT_EQ(batched.next_gaussian(), expected[11]);
}

TEST(Xoshiro, FillGaussianChunkedEqualsOneShot) {
  // Splitting one logical block across several calls (as ensure_gaussians
  // refills do) must concatenate to the same stream.
  Xoshiro256StarStar whole(7), pieces(7);
  double a[100];
  whole.fill_gaussian(a, 100);
  double b[100];
  pieces.fill_gaussian(b, 37);
  pieces.fill_gaussian(b + 37, 1);
  pieces.fill_gaussian(b + 38, 62);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(a[i], b[i]);
  EXPECT_EQ(whole.next(), pieces.next());
}

}  // namespace
}  // namespace trng::common
