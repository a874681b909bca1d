// Unit tests for the related-work baseline TRNGs (Table 2).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/baselines/str_trng.hpp"
#include "core/baselines/sunar_trng.hpp"
#include "core/baselines/tero_trng.hpp"
#include "oracles.hpp"

namespace trng::core::baselines {
namespace {

TEST(SunarTrng, RejectsBadParameters) {
  SunarSchellekensTrng::Params p;
  p.rings = 0;
  EXPECT_THROW(SunarSchellekensTrng(p, 1), std::invalid_argument);
  p = SunarSchellekensTrng::Params{};
  p.code_out = 5;  // does not divide 256
  EXPECT_THROW(SunarSchellekensTrng(p, 1), std::invalid_argument);
}

TEST(SunarTrng, InfoMatchesTable2) {
  SunarSchellekensTrng t(1);
  const auto info = t.info();
  EXPECT_EQ(info.platform, "Virtex 2 pro");
  EXPECT_EQ(info.resources, "565 slices");
  EXPECT_NEAR(info.throughput_bps, 2.5e6, 1e3);  // 40 MHz * 16/256
}

TEST(SunarTrng, OutputIsBalanced) {
  SunarSchellekensTrng t(2);
  const auto bits = t.generate(trng::common::Bits{30000});
  EXPECT_NEAR(bits.ones_fraction(), 0.5, 0.02);
}

TEST(SunarTrng, RawSamplesAreNotConstant) {
  // A [16, 16] resilient function passes each raw sample (the XOR of all
  // rings at the sample clock) through unchanged.
  SunarSchellekensTrng::Params p;
  p.code_in = 16;
  p.code_out = 16;
  SunarSchellekensTrng t(p, 3);
  const std::size_t ones = t.generate(trng::common::Bits{1000}).count_ones();
  EXPECT_GT(ones, 100u);
  EXPECT_LT(ones, 900u);
}

TEST(SunarTrng, MatchesScalarReference) {
  // The SoA lane refill (one Gaussian block per sample, rings as lanes)
  // against the ring-at-a-time reference in tests/oracles.hpp, on the
  // default [256, 16] code and on a raw [16, 16] one.
  for (const unsigned code_in : {256u, 16u}) {
    SCOPED_TRACE(code_in);
    SunarSchellekensTrng::Params p;
    p.code_in = code_in;
    SunarSchellekensTrng t(p, 5);
    test::SunarReference ref(p, 5);
    const auto bits = t.generate(trng::common::Bits{300});
    for (std::size_t i = 0; i < bits.size(); ++i) {
      ASSERT_EQ(bits[i], ref.next_bit()) << "bit " << i;
    }
  }
}

TEST(StrTrng, RejectsBadParameters) {
  SelfTimedRingTrng::Params p;
  p.stages = 1;
  EXPECT_THROW(SelfTimedRingTrng(p, 1), std::invalid_argument);
}

TEST(StrTrng, InfoMatchesTable2) {
  const auto info = SelfTimedRingTrng(1).info();
  EXPECT_EQ(info.platform, "Virtex 5");
  EXPECT_EQ(info.resources, ">511 LUTs");
  EXPECT_DOUBLE_EQ(info.throughput_bps, 100.0e6);
}

TEST(StrTrng, OutputIsBalanced) {
  SelfTimedRingTrng t(5);
  const auto bits = t.generate(trng::common::Bits{30000});
  EXPECT_NEAR(bits.ones_fraction(), 0.5, 0.02);
}

TEST(StrTrng, FinePhaseGridGivesHighPerSampleEntropy) {
  // The jitter accumulated over one 10 ns sample period (~5 ps) matches
  // the ~4.9 ps phase bin, and the incommensurate drift sweeps ~2 bins per
  // sample, so consecutive samples decorrelate.
  SelfTimedRingTrng t(6);
  const auto bits = t.generate(trng::common::Bits{30000});
  // Count 00/01/10/11 pairs — all four should be well represented.
  int pairs[4] = {};
  for (std::size_t i = 0; i + 1 < bits.size(); i += 2) {
    ++pairs[(bits[i] ? 2 : 0) + (bits[i + 1] ? 1 : 0)];
  }
  for (int c : pairs) EXPECT_GT(c, 2500);
}

TEST(TeroTrng, RejectsBadParameters) {
  TeroTrng::Params p;
  p.mean_count = 0.5;
  EXPECT_THROW(TeroTrng(p, 1), std::invalid_argument);
}

TEST(TeroTrng, InfoMatchesTable2) {
  const auto info = TeroTrng(1).info();
  EXPECT_EQ(info.platform, "Spartan 3E");
  EXPECT_EQ(info.resources, "not reported");
  EXPECT_DOUBLE_EQ(info.throughput_bps, 250.0e3);
}

TEST(TeroTrng, CountsSpreadAroundMean) {
  TeroTrng t(7);
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    std::uint64_t bit = 0;
    t.generate_into(&bit, trng::common::Bits{1});
    sum += static_cast<double>(t.last_count());
    sum2 += static_cast<double>(t.last_count()) *
            static_cast<double>(t.last_count());
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, 220.0, 5.0);
  EXPECT_GT(std::sqrt(var), 5.0);  // spread covers many parities
}

TEST(TeroTrng, ParityOutputIsBalanced) {
  TeroTrng t(8);
  const auto bits = t.generate(trng::common::Bits{30000});
  EXPECT_NEAR(bits.ones_fraction(), 0.5, 0.02);
}

TEST(Baselines, AllDeterministicPerSeed) {
  SunarSchellekensTrng s1(9), s2(9);
  EXPECT_TRUE(s1.generate(trng::common::Bits{500}) == s2.generate(trng::common::Bits{500}));
  SelfTimedRingTrng r1(9), r2(9);
  EXPECT_TRUE(r1.generate(trng::common::Bits{500}) == r2.generate(trng::common::Bits{500}));
  TeroTrng t1(9), t2(9);
  EXPECT_TRUE(t1.generate(trng::common::Bits{500}) == t2.generate(trng::common::Bits{500}));
}

}  // namespace
}  // namespace trng::core::baselines
