// Unit tests for the plug-in Shannon estimate (Table 1's H_RAW) and its
// ordering against the SP 800-90B min-entropy estimates.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "stattests/estimators.hpp"
#include "stattests/sp800_90b.hpp"

namespace trng::stat {
namespace {

common::BitStream iid_bits(std::size_t n, double p, std::uint64_t seed) {
  common::Xoshiro256StarStar rng(seed);
  common::BitStream b;
  for (std::size_t i = 0; i < n; ++i) b.push_back(rng.next_double() < p);
  return b;
}

TEST(ShannonEstimate, FairSourceIsNearOne) {
  EXPECT_NEAR(shannon_entropy_estimate(iid_bits(400000, 0.5, 1)), 1.0, 0.005);
}

TEST(ShannonEstimate, BiasedSourceMatchesTheory) {
  const double p = 0.7;
  EXPECT_NEAR(shannon_entropy_estimate(iid_bits(400000, p, 2)),
              common::binary_entropy(p), 0.01);
}

TEST(ShannonEstimate, ConstantSourceIsZero) {
  common::BitStream zeros;
  for (int i = 0; i < 200000; ++i) zeros.push_back(false);
  EXPECT_DOUBLE_EQ(shannon_entropy_estimate(zeros), 0.0);
}

TEST(ShannonEstimate, RejectsInsufficientData) {
  // 100 * 2^4 blocks of 4 bits is the smallest usable sample.
  EXPECT_THROW(shannon_entropy_estimate(iid_bits(1000, 0.5, 3)),
               std::invalid_argument);
  EXPECT_THROW(shannon_entropy_estimate(iid_bits(6399, 0.5, 3)),
               std::invalid_argument);
  EXPECT_NO_THROW(shannon_entropy_estimate(iid_bits(6400, 0.5, 3)));
}

class EstimatorConsistency : public ::testing::TestWithParam<double> {};

TEST_P(EstimatorConsistency, OrderingHoldsAcrossBiases) {
  // min-entropy <= Shannon for every source, and the non-IID assessment is
  // at most its most-common-value estimate.
  const double p = GetParam();
  const auto bits = iid_bits(500000, p, 42 + static_cast<std::uint64_t>(p * 100));
  const double h_mcv = sp800_90b::most_common_value_estimate(bits);
  EXPECT_LE(h_mcv, shannon_entropy_estimate(bits));
  EXPECT_LE(sp800_90b::non_iid_min_entropy(bits), h_mcv);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EstimatorConsistency,
                         ::testing::Values(0.5, 0.55, 0.65, 0.8, 0.95));

}  // namespace
}  // namespace trng::stat
