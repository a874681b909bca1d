// Unit tests for the battery runner and the n_NIST search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/rng.hpp"
#include "core/bit_source.hpp"
#include "stattests/battery.hpp"

namespace trng::stat {
namespace {

common::BitStream random_bits(std::size_t n, std::uint64_t seed = 1) {
  common::Xoshiro256StarStar rng(seed);
  common::BitStream b;
  b.reserve(n + 64);
  for (std::size_t w = 0; w < n / 64 + 1; ++w) b.append_bits(rng.next(), 64);
  return b.slice(0, n);
}

TEST(TestResult, SinglePValuePassCriterion) {
  TestResult r;
  r.p_values = {0.02};
  EXPECT_TRUE(r.passed(0.01));
  r.p_values = {0.005};
  EXPECT_FALSE(r.passed(0.01));
  r.p_values.clear();
  EXPECT_FALSE(r.passed(0.01));
  r.applicable = false;
  EXPECT_TRUE(r.passed(0.01));  // inapplicable = no evidence against
}

TEST(TestResult, MultiPValueToleratesExpectedFailures) {
  // 148 p-values at alpha = 0.01: expected 1.48 failures, allowed up to
  // 1.48 + 3 * sqrt(1.47) ~ 5.1.
  TestResult r;
  r.p_values.assign(148, 0.5);
  r.p_values[0] = 0.001;
  r.p_values[1] = 0.002;
  r.p_values[2] = 0.003;
  EXPECT_TRUE(r.passed(0.01));
  for (int i = 0; i < 10; ++i) r.p_values[static_cast<std::size_t>(i)] = 0.001;
  EXPECT_FALSE(r.passed(0.01));
}

TEST(TestBattery, RejectsBadAlpha) {
  TestBattery::Options opt;
  opt.alpha = 0.0;
  EXPECT_THROW(TestBattery{opt}, std::invalid_argument);
  opt.alpha = 1.0;
  EXPECT_THROW(TestBattery{opt}, std::invalid_argument);
}

TEST(TestBattery, FullRunOnRandomDataPasses) {
  TestBattery battery;
  const auto report = battery.run(random_bits(1100000, 20260707));
  EXPECT_TRUE(report.all_passed()) << [&] {
    std::string failed;
    for (const auto& r : report.results) {
      if (r.applicable && !r.passed()) failed += r.name + " ";
    }
    return failed;
  }();
  EXPECT_EQ(report.results.size(), 15u);
  EXPECT_GE(report.applicable_count(), 13u);
  EXPECT_EQ(report.failed_count(), 0u);
}

TEST(TestBattery, FastModeSkipsSlowTests) {
  TestBattery::Options opt;
  opt.include_slow = false;
  TestBattery battery(opt);
  const auto report = battery.run(random_bits(200000, 3));
  EXPECT_EQ(report.results.size(), 9u);
}

TEST(TestBattery, BiasedDataFailsMultipleTests) {
  common::Xoshiro256StarStar rng(4);
  common::BitStream biased;
  for (int i = 0; i < 300000; ++i) biased.push_back(rng.next_double() < 0.53);
  TestBattery battery;
  const auto report = battery.run(biased);
  EXPECT_FALSE(report.all_passed());
  EXPECT_GE(report.failed_count(), 2u);
}

TEST(TestBattery, VacuousReportDoesNotPass) {
  // Headline regression: a report where every test is inapplicable (the
  // stream is too short for any of them) used to satisfy all_passed()
  // vacuously. It must not count as a pass.
  TestBattery battery;
  const auto report = battery.run(random_bits(50, 2));
  EXPECT_EQ(report.applicable_count(), 0u);
  EXPECT_EQ(report.failed_count(), 0u);
  EXPECT_FALSE(report.all_passed());

  BatteryReport empty;
  EXPECT_FALSE(empty.all_passed());
}

/// A test-local raw source: each bit is 1 with probability `p_one` (one
/// next_double() per bit), or a raw next() word per 64 bits at p_one = 0.5.
class BernoulliSource : public core::BitSource {
 public:
  BernoulliSource(double p_one, std::uint64_t seed) : p_one_(p_one), rng_(seed) {}

  void generate_into(std::uint64_t* words, common::Bits nbits) override {
    const std::size_t n = nbits.count();
    for (std::size_t w = 0; w < (n + 63) / 64; ++w) {
      const std::size_t len = std::min<std::size_t>(64, n - w * 64);
      std::uint64_t v = 0;
      if (p_one_ == 0.5) {
        v = rng_.next();
        if (len < 64) v &= (std::uint64_t{1} << len) - 1;
      } else {
        for (std::size_t b = 0; b < len; ++b) {
          v |= static_cast<std::uint64_t>(rng_.next_double() < p_one_) << b;
        }
      }
      words[w] = v;
    }
  }
  core::SourceInfo info() const override { return {"bernoulli", "", "", 1.0}; }

 private:
  double p_one_;
  common::Xoshiro256StarStar rng_;
};

TEST(TestBattery, MinPassingNpFindsCompressionRate) {
  // A source with bias 0.25: b_pp(np) = 2^(np-1) * 0.25^np; np = 3 gives
  // bias 0.0156 — still detectable on 60k bits; np = 4 gives 0.0039.
  TestBattery::Options opt;
  opt.include_slow = false;
  TestBattery battery(opt);
  BernoulliSource source(0.75, 5);
  const auto np = battery.min_passing_np(source, common::Bits{60000}, 8);
  ASSERT_TRUE(np.has_value());
  EXPECT_GE(*np, 3u);
  EXPECT_LE(*np, 6u);
}

TEST(TestBattery, MinPassingNpIsOneForGoodSource) {
  TestBattery::Options opt;
  opt.include_slow = false;
  TestBattery battery(opt);
  BernoulliSource source(0.5, 6);
  EXPECT_EQ(battery.min_passing_np(source, common::Bits{60000}, 8), 1u);
}

TEST(TestBattery, MinPassingNpReturnsNulloptWhenHopeless) {
  // Constant source never passes however hard it is compressed.
  TestBattery::Options opt;
  opt.include_slow = false;
  TestBattery battery(opt);
  BernoulliSource source(1.0, 7);
  EXPECT_EQ(battery.min_passing_np(source, common::Bits{30000}, 4),
            std::nullopt);
}

TEST(TestBattery, MinPassingNpValidatesArguments) {
  TestBattery battery;
  BernoulliSource source(0.5, 8);
  EXPECT_THROW(battery.min_passing_np(source, common::Bits{100}, 4),
               std::invalid_argument);
  EXPECT_THROW(battery.min_passing_np(source, common::Bits{100000}, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace trng::stat
