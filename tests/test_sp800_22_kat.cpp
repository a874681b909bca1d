// Known-answer tests: the worked examples of SP 800-22 rev. 1a, checked
// against the published p-values. Every example runs through the
// production kernels, and the bit-serial oracle (sp800_22_oracle.hpp) must
// agree with them to the last bit of the double.
//
// The short examples (n = 10..100) violate the production length
// recommendations, so they run under Gating::kSpecExample, which bypasses
// the recommended minimums without changing the statistic.
#include <gtest/gtest.h>

#include <cmath>

#include "sp800_22_oracle.hpp"
#include "stattests/sp800_22_wordpar.hpp"

namespace trng::stat {
namespace {

// First 100 binary digits of pi (integer part "11" included) — the input
// of the spec's n = 100 worked examples: 42 ones (S_100 = -16), V = 52
// runs, max cumulative-sum excursions 16 forward / 19 backward.
constexpr const char* kPi100 =
    "1100100100001111110110101010001000100001011010001100"
    "001000110100110001001100011001100010100010111000";

common::BitStream pi100() { return common::BitStream::from_string(kPi100); }

constexpr double kTol = 1e-6;  // published values are rounded to 6 digits

}  // namespace

// ---- 2.1 frequency -------------------------------------------------------

TEST(Kat, FrequencyShortExample) {
  // Section 2.1.4: epsilon = 1011010101, S = 2, P = 0.527089.
  const auto bits = common::BitStream::from_string("1011010101");
  const auto got = wordpar::frequency_test(bits, Gating::kSpecExample);
  ASSERT_TRUE(got.applicable);
  EXPECT_NEAR(got.p(), 0.527089, kTol);
  EXPECT_EQ(got.p(), oracle::frequency_test(bits, Gating::kSpecExample).p());
}

TEST(Kat, FrequencyPi100) {
  // Section 2.1.8: n = 100, S = -16, P = 0.109599.
  const auto bits = pi100();
  const auto got = wordpar::frequency_test(bits);
  ASSERT_TRUE(got.applicable);
  EXPECT_NEAR(got.p(), 0.109599, kTol);
  EXPECT_EQ(got.p(), oracle::frequency_test(bits).p());
}

// ---- 2.2 block frequency -------------------------------------------------

TEST(Kat, BlockFrequencyShortExample) {
  // Section 2.2.4: epsilon = 0110011010, M = 3, chi^2 = 1, P = 0.801252.
  const auto bits = common::BitStream::from_string("0110011010");
  const auto got =
      wordpar::block_frequency_test(bits, 3, Gating::kSpecExample);
  ASSERT_TRUE(got.applicable);
  EXPECT_NEAR(got.p(), 0.801252, kTol);
  EXPECT_EQ(got.p(),
            oracle::block_frequency_test(bits, 3, Gating::kSpecExample).p());
}

TEST(Kat, BlockFrequencyPi100) {
  // Section 2.2.8: n = 100, M = 10, chi^2 = 7.2, P = 0.706438.
  const auto bits = pi100();
  const auto got =
      wordpar::block_frequency_test(bits, 10, Gating::kSpecExample);
  ASSERT_TRUE(got.applicable);
  EXPECT_NEAR(got.p(), 0.706438, kTol);
  EXPECT_EQ(got.p(),
            oracle::block_frequency_test(bits, 10, Gating::kSpecExample).p());
}

// ---- 2.3 runs ------------------------------------------------------------

TEST(Kat, RunsShortExample) {
  // Section 2.3.4: epsilon = 1001101011, V = 7, P = 0.147232.
  const auto bits = common::BitStream::from_string("1001101011");
  const auto got = wordpar::runs_test(bits, Gating::kSpecExample);
  ASSERT_TRUE(got.applicable);
  EXPECT_NEAR(got.p(), 0.147232, kTol);
  EXPECT_EQ(got.p(), oracle::runs_test(bits, Gating::kSpecExample).p());
}

TEST(Kat, RunsPi100) {
  // Section 2.3.8: n = 100, pi = 0.42, V = 52, P = 0.500798.
  const auto bits = pi100();
  const auto got = wordpar::runs_test(bits);
  ASSERT_TRUE(got.applicable);
  EXPECT_NEAR(got.p(), 0.500798, kTol);
  EXPECT_EQ(got.p(), oracle::runs_test(bits).p());
}

// ---- 2.13 cumulative sums ------------------------------------------------

TEST(Kat, CumulativeSumsShortExample) {
  // Section 2.13.4: epsilon = 1011010111, z = 4. The spec prints
  // P = 0.4116588, but evaluating its own closed-form sum (step 4 of
  // §2.13.4) exactly gives 0.4115847 — the printed value is a document
  // erratum (truncated normal-CDF table). The n = 100 example below
  // matches the same formula to all published digits, confirming the
  // implementation; assert the exact value here.
  const auto bits = common::BitStream::from_string("1011010111");
  const auto got = wordpar::cumulative_sums_test(bits, Gating::kSpecExample);
  ASSERT_TRUE(got.applicable);
  ASSERT_EQ(got.p_values.size(), 2u);
  EXPECT_NEAR(got.p_values[0], 0.4115847, kTol);
  const auto ref = oracle::cumulative_sums_test(bits, Gating::kSpecExample);
  EXPECT_EQ(got.p_values[0], ref.p_values[0]);
  EXPECT_EQ(got.p_values[1], ref.p_values[1]);
}

TEST(Kat, CumulativeSumsPi100) {
  // Section 2.13.8: n = 100, z = 16 forward (P = 0.219194) and z = 19
  // backward (P = 0.114866).
  const auto bits = pi100();
  const auto got = wordpar::cumulative_sums_test(bits);
  ASSERT_TRUE(got.applicable);
  ASSERT_EQ(got.p_values.size(), 2u);
  EXPECT_NEAR(got.p_values[0], 0.219194, kTol);
  EXPECT_NEAR(got.p_values[1], 0.114866, kTol);
  const auto ref = oracle::cumulative_sums_test(bits);
  EXPECT_EQ(got.p_values[0], ref.p_values[0]);
  EXPECT_EQ(got.p_values[1], ref.p_values[1]);
}

// ---- 2.11 serial ---------------------------------------------------------

TEST(Kat, SerialShortExample) {
  // Section 2.11.4: epsilon = 0011011101, m = 3, psi^2_3 = 2.8,
  // psi^2_2 = 1.2, psi^2_1 = 0.4 -> P1 = 0.808792, P2 = 0.670320.
  const auto bits = common::BitStream::from_string("0011011101");
  const auto got = wordpar::serial_test(bits, 3, Gating::kSpecExample);
  ASSERT_TRUE(got.applicable);
  ASSERT_EQ(got.p_values.size(), 2u);
  EXPECT_NEAR(got.p_values[0], 0.808792, kTol);
  EXPECT_NEAR(got.p_values[1], 0.670320, kTol);
  const auto ref = oracle::serial_test(bits, 3, Gating::kSpecExample);
  EXPECT_EQ(got.p_values[0], ref.p_values[0]);
  EXPECT_EQ(got.p_values[1], ref.p_values[1]);
}

// ---- 2.12 approximate entropy --------------------------------------------

TEST(Kat, ApproximateEntropyShortExample) {
  // Section 2.12.4: epsilon = 0100110101, m = 3, chi^2 = 10.043862,
  // P = 0.261961.
  const auto bits = common::BitStream::from_string("0100110101");
  const auto got =
      wordpar::approximate_entropy_test(bits, 3, Gating::kSpecExample);
  ASSERT_TRUE(got.applicable);
  EXPECT_NEAR(got.p(), 0.261961, kTol);
  EXPECT_EQ(got.p(),
            oracle::approximate_entropy_test(bits, 3, Gating::kSpecExample)
                .p());
}

// ---- 2.9 universal -------------------------------------------------------

TEST(Kat, UniversalShortExample) {
  // Section 2.9.4: epsilon = 01011010011101010111, L = 2, Q = 4, K = 6,
  // sum = log2(3) + log2(6) + 1 + 0 + 0 + 2, fn = 1.1949875. The spec's
  // illustrated P-value (0.767189) uses the simplified sigma =
  // sqrt(variance) without the c bias-correction factor, so it is
  // recomputed here from fn rather than from universal_statistic's
  // production formula.
  const auto bits = common::BitStream::from_string("01011010011101010111");
  const auto stat =
      wordpar::universal_statistic(bits, 2, 4, 1.5374383, 1.338);
  EXPECT_EQ(stat.k, 6u);
  EXPECT_NEAR(stat.fn, 1.1949875, kTol);
  const double illustrated =
      std::erfc(std::fabs(stat.fn - 1.5374383) /
                (std::sqrt(2.0) * std::sqrt(1.338)));
  EXPECT_NEAR(illustrated, 0.767189, kTol);
  EXPECT_GT(stat.p_value, 0.0);
  EXPECT_LE(stat.p_value, 1.0);
  const auto ref = oracle::universal_statistic(bits, 2, 4, 1.5374383, 1.338);
  EXPECT_EQ(stat.k, ref.k);
  EXPECT_EQ(stat.fn, ref.fn);
  EXPECT_EQ(stat.p_value, ref.p_value);
}

}  // namespace trng::stat
