// Unit tests for the online statistics helpers.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace trng::common {
namespace {

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, ThrowsWithoutSamples) {
  RunningStats s;
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.min(), std::logic_error);
  s.add(1.0);
  EXPECT_THROW(s.variance(), std::logic_error);  // needs two samples
}

TEST(RunningStats, NumericallyStableForLargeOffsets) {
  // Welford must survive values with a huge common offset.
  RunningStats s;
  for (int i = 0; i < 1000; ++i) s.add(1.0e12 + (i % 2));
  EXPECT_NEAR(s.variance(), 0.2502502502, 1e-6);
}

TEST(RunningStats, MatchesGaussianSample) {
  Xoshiro256StarStar rng(11);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(3.0 + 2.0 * rng.next_gaussian());
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  s.add(1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(KahanSum, RecoversCancelledDigits) {
  // 1 + 1e-16 added 10^6 times: naive double addition loses the small term.
  KahanSum k;
  k.add(1.0);
  for (int i = 0; i < 1000000; ++i) k.add(1.0e-16);
  EXPECT_NEAR(k.value(), 1.0 + 1.0e-10, 1e-14);
}

TEST(BinaryEntropy, KnownValues) {
  EXPECT_DOUBLE_EQ(binary_entropy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(binary_entropy(1.0), 0.0);
  EXPECT_DOUBLE_EQ(binary_entropy(0.5), 1.0);
  EXPECT_NEAR(binary_entropy(0.11), 0.4999, 5e-4);  // famous H(0.11) ~ 0.5
  EXPECT_NEAR(binary_entropy(0.25), binary_entropy(0.75), 0.0);
  EXPECT_THROW(binary_entropy(-0.1), std::domain_error);
  EXPECT_THROW(binary_entropy(1.1), std::domain_error);
}

}  // namespace
}  // namespace trng::common
