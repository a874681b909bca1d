// Unit tests for the SP 800-90B min-entropy estimators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <string>

#include "common/rng.hpp"
#include "stattests/sp800_90b.hpp"

namespace trng::stat::sp800_90b {
namespace {

common::BitStream iid_bits(std::size_t n, double p, std::uint64_t seed) {
  common::Xoshiro256StarStar rng(seed);
  common::BitStream b;
  for (std::size_t i = 0; i < n; ++i) b.push_back(rng.next_double() < p);
  return b;
}

common::BitStream sticky_bits(std::size_t n, double flip_prob,
                              std::uint64_t seed) {
  common::Xoshiro256StarStar rng(seed);
  common::BitStream b;
  bool cur = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_double() < flip_prob) cur = !cur;
    b.push_back(cur);
  }
  return b;
}

/// The specification's upper bound p_u = min(1, p + 2.576 sqrt(p (1 - p) /
/// (L - 1))) (6.3.1 step 2, 6.3.5 step 4, 6.3.6 step 4).
double spec_upper_bound(double p, std::size_t len) {
  return std::min(1.0, p + 2.576 * std::sqrt(p * (1.0 - p) /
                                             static_cast<double>(len - 1)));
}

/// Occurrence counts of every overlapping w-bit substring of `s`.
std::map<std::string, std::size_t> substring_counts(const std::string& s,
                                                    std::size_t w) {
  std::map<std::string, std::size_t> counts;
  for (std::size_t i = 0; i + w <= s.size(); ++i) ++counts[s.substr(i, w)];
  return counts;
}

std::size_t max_count(const std::map<std::string, std::size_t>& counts) {
  std::size_t best = 0;
  for (const auto& [key, c] : counts) best = std::max(best, c);
  return best;
}

/// A fixed 1200-bit biased sequence for the known-answer tests.
common::BitStream kat_bits() { return iid_bits(1200, 0.7, 2024); }

// ---- 6.3.1 most common value -------------------------------------------------

TEST(McvMinEntropy, FairSourceNearOne) {
  EXPECT_NEAR(most_common_value_estimate(iid_bits(400000, 0.5, 4)), 1.0, 0.01);
}

TEST(McvMinEntropy, BiasedSourceMatchesMinusLogP) {
  const double p = 0.75;
  EXPECT_NEAR(most_common_value_estimate(iid_bits(400000, p, 5)),
              -std::log2(p), 0.01);
}

TEST(McvMinEntropy, IsConservative) {
  // The upper bound makes the estimate a slight underestimate on average.
  EXPECT_LE(most_common_value_estimate(iid_bits(100000, 0.5, 6)), 1.0);
}

TEST(McvMinEntropy, RejectsSingleBit) {
  // The bound divides by L - 1.
  EXPECT_THROW(most_common_value_estimate(common::BitStream::from_string("1")),
               std::invalid_argument);
}

TEST(McvMinEntropy, KnownAnswerFromSpecFormula) {
  // 14 ones in 20 bits: p_hat = 0.7, bounded over L - 1 = 19.
  const auto bits = common::BitStream::from_string("11011011110110111100");
  ASSERT_EQ(bits.count_ones(), 14u);
  const double expected = -std::log2(spec_upper_bound(14.0 / 20.0, 20));
  EXPECT_NEAR(most_common_value_estimate(bits), expected, 1e-12);
}

// ---- 6.3.3 Markov -------------------------------------------------------------

TEST(MarkovMinEntropy, FairIidNearOne) {
  EXPECT_NEAR(markov_estimate(iid_bits(400000, 0.5, 7)), 1.0, 0.02);
}

TEST(MarkovMinEntropy, CatchesStickyChain) {
  // A chain that flips with probability 0.1 has low per-bit min-entropy
  // (~ -log2(0.9) = 0.152) even though it is globally balanced.
  const auto sticky = sticky_bits(400000, 0.1, 8);
  EXPECT_NEAR(sticky.ones_fraction(), 0.5, 0.05);
  EXPECT_NEAR(markov_estimate(sticky), -std::log2(0.9), 0.03);
  // MCV on single bits misses it entirely.
  EXPECT_GT(most_common_value_estimate(sticky), 0.8);
}

TEST(MarkovMinEntropy, RejectsBadArguments) {
  EXPECT_THROW(markov_estimate(iid_bits(100, 0.5, 9)), std::invalid_argument);
}

// ---- 6.3.2 collision ----------------------------------------------------------

TEST(Collision, FairSourceNearOne) {
  // The collision estimate's sqrt sensitivity at c = 1/2 makes it the
  // binding conservative estimator on ideal data (~0.85-0.9, matching the
  // reference NIST tool's behaviour on fair binary sources).
  EXPECT_GT(collision_estimate(iid_bits(200000, 0.5, 1)), 0.8);
}

TEST(Collision, BiasedSourceBoundsCorrectly) {
  // p = 0.75: H_min = -log2(0.75) = 0.415; the collision estimate is a
  // conservative (<=) assessment.
  const double h = collision_estimate(iid_bits(400000, 0.75, 2));
  EXPECT_LT(h, 0.47);
  EXPECT_GT(h, 0.30);
}

TEST(Collision, ConstantSourceIsZero) {
  common::BitStream ones;
  for (int i = 0; i < 10000; ++i) ones.push_back(true);
  EXPECT_DOUBLE_EQ(collision_estimate(ones), 0.0);
}

TEST(Collision, RejectsShortInput) {
  EXPECT_THROW(collision_estimate(iid_bits(100, 0.5, 3)),
               std::invalid_argument);
}

TEST(TTuple, FairSourceNearOne) {
  EXPECT_GT(t_tuple_estimate(iid_bits(200000, 0.5, 4)), 0.9);
}

TEST(TTuple, CatchesRepeatedPattern) {
  // 90% of the time emit the fixed pattern 10110100, else random: long
  // tuples repeat far too often.
  common::Xoshiro256StarStar rng(5);
  common::BitStream b;
  const bool pattern[8] = {1, 0, 1, 1, 0, 1, 0, 0};
  for (int rep = 0; rep < 20000; ++rep) {
    if (rng.next_double() < 0.9) {
      for (bool bit : pattern) b.push_back(bit);
    } else {
      for (int j = 0; j < 8; ++j) b.push_back(rng.next() & 1);
    }
  }
  EXPECT_LT(t_tuple_estimate(b), 0.35);
}

TEST(TTuple, RejectsBadArguments) {
  EXPECT_THROW(t_tuple_estimate(iid_bits(100, 0.5, 6)),
               std::invalid_argument);
}

/// 6.3.5 from the spec's text: Q[t] for each t <= 24 (the estimator's
/// cap) while the most common t-tuple occurs >= 35 times,
/// P_max = max (Q[t] / (L - t + 1))^(1/t), then one upper bound.
/// `lengths` receives the number of tuple lengths that took part.
double spec_t_tuple_estimate(const common::BitStream& bits,
                             std::size_t& lengths) {
  const std::string s = bits.to_string();
  const std::size_t len = s.size();
  double p_max = 0.0;
  std::size_t t = 1;
  for (; t <= 24; ++t) {
    const std::size_t q = max_count(substring_counts(s, t));
    if (q < 35) break;
    p_max = std::max(p_max, std::pow(static_cast<double>(q) /
                                         static_cast<double>(len - t + 1),
                                     1.0 / static_cast<double>(t)));
  }
  lengths = t - 1;
  return -std::log2(spec_upper_bound(p_max, len));
}

TEST(TTuple, KnownAnswerFromSpecFormula) {
  const auto bits = kat_bits();
  std::size_t lengths = 0;
  const double expected = spec_t_tuple_estimate(bits, lengths);
  ASSERT_GE(lengths, 3u);  // several tuple lengths take part
  EXPECT_NEAR(t_tuple_estimate(bits), expected, 1e-12);
}

TEST(TTuple, KnownAnswerPastSixteenBitTuples) {
  // Tuples longer than 16 bits are counted by sorting instead of in a
  // 2^t table; a repetitive 4000-bit input keeps the most common tuple
  // above the cutoff until t = 24.
  common::Xoshiro256StarStar rng(11);
  common::BitStream bits;
  const bool pattern[8] = {1, 0, 1, 1, 0, 1, 0, 0};
  for (int rep = 0; rep < 500; ++rep) {
    const bool keep = rng.next_double() < 0.9;
    for (const bool bit : pattern) {
      bits.push_back(keep ? bit : (rng.next() & 1) != 0);
    }
  }
  std::size_t lengths = 0;
  const double expected = spec_t_tuple_estimate(bits, lengths);
  ASSERT_GT(lengths, 16u);
  EXPECT_NEAR(t_tuple_estimate(bits), expected, 1e-12);
}

TEST(Lrs, FairSourceNearOne) {
  EXPECT_GT(lrs_estimate(iid_bits(200000, 0.5, 7)), 0.9);
}

TEST(Lrs, CatchesPeriodicSource) {
  common::BitStream b;
  for (int i = 0; i < 100000; ++i) b.push_back((i % 37) < 18);
  EXPECT_LT(lrs_estimate(b), 0.2);
}

TEST(Lrs, KnownAnswerFromSpecFormula) {
  // 6.3.6: u is the smallest W whose most common W-tuple occurs fewer
  // than 35 times, v the largest W whose most common W-tuple occurs at
  // least twice; P_W = sum_i C(C_i, 2) / C(L - W + 1, 2) for every W from
  // u to v, P_max = max P_W^(1/W), then the upper bound of step 4.
  const auto bits = kat_bits();
  const std::string s = bits.to_string();
  const std::size_t len = s.size();
  std::size_t u = 1;
  while (max_count(substring_counts(s, u)) >= 35) ++u;
  std::size_t v = u;
  while (max_count(substring_counts(s, v + 1)) >= 2) ++v;
  ASSERT_GT(v, u + 2);
  double p_max = 0.0;
  for (std::size_t w = u; w <= v; ++w) {
    double pairs = 0.0;
    for (const auto& [key, c] : substring_counts(s, w)) {
      pairs += 0.5 * static_cast<double>(c) * static_cast<double>(c - 1);
    }
    const double windows = static_cast<double>(len - w + 1);
    const double p_w = pairs / (0.5 * windows * (windows - 1.0));
    p_max = std::max(p_max, std::pow(p_w, 1.0 / static_cast<double>(w)));
  }
  const double expected = -std::log2(spec_upper_bound(p_max, len));
  EXPECT_NEAR(lrs_estimate(bits), expected, 1e-12);
  EXPECT_NEAR(expected, 0.6408, 5e-5);
}

TEST(Lrs, RepeatsLongerThanAWord) {
  // A 37-bit period repeats substrings up to v = L - 37 bits long, and the
  // most common W-tuple occurs 35 times until only 34 * 37 windows are
  // left: u = L - 34 * 37 + 1. Both lie far beyond 64 (the maximum of
  // P_W^(1/W) is at W = 4763). Each W-window equals those a multiple of 37
  // away, so P_W = sum_c C(c, 2) / C(L - W + 1, 2) over the 37 residue
  // classes of window starts, c windows each.
  constexpr std::size_t kLen = 5000;
  constexpr std::size_t kPeriod = 37;
  common::BitStream b;
  for (std::size_t i = 0; i < kLen; ++i) b.push_back((i * 7 % kPeriod) < 18);
  const std::size_t u = kLen - 34 * kPeriod + 1;
  const std::size_t v = kLen - kPeriod;
  double p_max = 0.0;
  for (std::size_t w = u; w <= v; ++w) {
    const std::size_t windows = kLen - w + 1;
    double pairs = 0.0;
    for (std::size_t r = 0; r < kPeriod; ++r) {
      // Window starts r, r + 37, ... below `windows`.
      const double c = static_cast<double>(
          windows > r ? (windows - r + kPeriod - 1) / kPeriod : 0);
      pairs += 0.5 * c * (c - 1.0);
    }
    const double wd = static_cast<double>(windows);
    p_max = std::max(p_max, std::pow(pairs / (0.5 * wd * (wd - 1.0)),
                                     1.0 / static_cast<double>(w)));
  }
  EXPECT_NEAR(lrs_estimate(b), -std::log2(spec_upper_bound(p_max, kLen)),
              1e-12);
}

TEST(NonIid, MinOfAllEstimators) {
  const auto bits = sticky_bits(300000, 0.1, 8);
  const double h = non_iid_min_entropy(bits);
  // The assessment is the min over estimators; on a sticky chain the
  // collision estimate is the binding (most conservative) one, landing
  // below the true conditional min-entropy -log2(0.9) = 0.152 — 90B's
  // deliberate conservatism on non-IID data.
  EXPECT_LE(h, markov_estimate(bits) + 1e-12);
  EXPECT_LE(h, -std::log2(0.9) + 0.02);
  EXPECT_GT(h, 0.04);
}

TEST(NonIid, FairSourceCloseToOne) {
  // The t-tuple/LRS estimators are conservative even on ideal data (the
  // reference NIST tool shows the same ~0.85-0.95 floor on fair sources).
  EXPECT_GT(non_iid_min_entropy(iid_bits(300000, 0.5, 9)), 0.82);
}

TEST(NonIid, RejectsShortInput) {
  EXPECT_THROW(non_iid_min_entropy(iid_bits(5000, 0.5, 10)),
               std::invalid_argument);
}

class BiasSweep : public ::testing::TestWithParam<double> {};

TEST_P(BiasSweep, AssessmentNeverExceedsTrueMinEntropy) {
  // Every 90B estimator must be conservative: assessed H <= true H_min
  // (plus a small statistical slack).
  const double p = GetParam();
  const double true_h = -std::log2(std::max(p, 1.0 - p));
  const auto bits = iid_bits(400000,
                             p, 100 + static_cast<std::uint64_t>(p * 1000));
  EXPECT_LE(non_iid_min_entropy(bits), true_h + 0.03) << "p = " << p;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BiasSweep,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9));

}  // namespace
}  // namespace trng::stat::sp800_90b
