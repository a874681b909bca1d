// Unit tests for the embedded online health tests (future work, Section 7).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/health.hpp"

namespace trng::core {
namespace {

TEST(RepetitionCount, RejectsBadParameters) {
  EXPECT_THROW(RepetitionCountTest(0.0), std::invalid_argument);
  EXPECT_THROW(RepetitionCountTest(1.5), std::invalid_argument);
  EXPECT_THROW(RepetitionCountTest(0.9, 0.0), std::invalid_argument);
}

TEST(RepetitionCount, CutoffFormula) {
  // C = 1 + ceil(alpha_log2 / H): H = 1, alpha 2^-20 -> 21.
  EXPECT_EQ(RepetitionCountTest(1.0, 20.0).cutoff(), 21u);
  EXPECT_EQ(RepetitionCountTest(0.5, 20.0).cutoff(), 41u);
}

TEST(RepetitionCount, FiresOnStuckSource) {
  RepetitionCountTest t(1.0, 20.0);
  bool fired = false;
  for (int i = 0; i < 30; ++i) fired = t.feed(true) || fired;
  EXPECT_TRUE(fired);
  EXPECT_EQ(t.alarms(), 1u);
}

TEST(RepetitionCount, QuietOnAlternatingSource) {
  RepetitionCountTest t(1.0, 20.0);
  for (int i = 0; i < 10000; ++i) EXPECT_FALSE(t.feed(i % 2 == 0));
  EXPECT_EQ(t.alarms(), 0u);
}

TEST(RepetitionCount, QuietOnFairRandom) {
  // Cutoff 31 (alpha = 2^-30): expected alarms over 2e5 fair bits ~ 1e-4.
  common::Xoshiro256StarStar rng(1);
  RepetitionCountTest t(1.0, 30.0);
  for (int i = 0; i < 200000; ++i) t.feed(rng.next() & 1);
  EXPECT_EQ(t.alarms(), 0u);
}

TEST(AdaptiveProportion, RejectsBadParameters) {
  EXPECT_THROW(AdaptiveProportionTest(0.0), std::invalid_argument);
  EXPECT_THROW(AdaptiveProportionTest(1.0, 8), std::invalid_argument);
}

TEST(AdaptiveProportion, FiresOnHeavyBias) {
  AdaptiveProportionTest t(1.0, 1024, 20.0);
  common::Xoshiro256StarStar rng(2);
  bool fired = false;
  for (int i = 0; i < 20000 && !fired; ++i) {
    fired = t.feed(rng.next_double() < 0.95);
  }
  EXPECT_TRUE(fired);
}

TEST(AdaptiveProportion, QuietOnFairRandom) {
  AdaptiveProportionTest t(1.0, 1024, 20.0);
  common::Xoshiro256StarStar rng(3);
  for (int i = 0; i < 500000; ++i) t.feed(rng.next() & 1);
  EXPECT_EQ(t.alarms(), 0u);
}

TEST(AdaptiveProportion, ToleratesDeclaredEntropyLevel) {
  // A source assessed at H = 0.6 per bit (p ~ 0.66) must NOT alarm when it
  // behaves exactly that way.
  AdaptiveProportionTest t(0.6, 1024, 20.0);
  common::Xoshiro256StarStar rng(4);
  for (int i = 0; i < 500000; ++i) t.feed(rng.next_double() < 0.66);
  EXPECT_EQ(t.alarms(), 0u);
}

TEST(TotalFailure, FiresAfterConsecutiveMisses) {
  TotalFailureTest t(4);
  EXPECT_FALSE(t.feed(false));
  EXPECT_FALSE(t.feed(false));
  EXPECT_FALSE(t.feed(false));
  EXPECT_TRUE(t.feed(false));
  EXPECT_EQ(t.alarms(), 1u);
}

TEST(TotalFailure, EdgeResetsTheCounter) {
  TotalFailureTest t(3);
  t.feed(false);
  t.feed(false);
  EXPECT_FALSE(t.feed(true));  // recovery
  t.feed(false);
  t.feed(false);
  EXPECT_TRUE(t.feed(false));
}

TEST(TotalFailure, RejectsZeroCutoff) {
  EXPECT_THROW(TotalFailureTest(0), std::invalid_argument);
}

TEST(OnlineHealthMonitor, QuietOnHealthySource) {
  OnlineHealthMonitor m(0.95);
  common::Xoshiro256StarStar rng(5);
  for (int i = 0; i < 300000; ++i) {
    EXPECT_FALSE(m.feed(rng.next() & 1, true));
  }
  EXPECT_EQ(m.total_alarms(), 0u);
}

TEST(OnlineHealthMonitor, CatchesDeadOscillator) {
  OnlineHealthMonitor m(0.95);
  // A dead oscillator: no edges, constant zero output.
  bool fired = false;
  for (int i = 0; i < 50 && !fired; ++i) fired = m.feed(false, false);
  EXPECT_TRUE(fired);
  EXPECT_GT(m.total_failure().alarms() + m.repetition().alarms(), 0u);
}

TEST(OnlineHealthMonitor, FeedBlockMatchesScalarFeed) {
  // feed_block is the batched facet used by the BitSource datapath: for
  // the same bit sequence it must leave the monitor in the same state and
  // report the same alarm totals as per-bit feed(bit, true) — across
  // unbiased, biased and adversarial (constant) words, and regardless of
  // the block sizes the sequence is split into.
  OnlineHealthMonitor scalar(0.95);
  OnlineHealthMonitor batched(0.95);
  common::Xoshiro256StarStar rng(31);
  const std::vector<std::size_t> blocks = {1, 3, 64, 65, 127, 1024, 40000};
  std::uint64_t scalar_alarms = 0;
  std::uint64_t batched_alarms = 0;
  for (std::size_t phase = 0; phase < 3; ++phase) {
    for (std::size_t nbits : blocks) {
      std::vector<std::uint64_t> words((nbits + 63) / 64, 0);
      for (std::size_t i = 0; i < nbits; ++i) {
        bool bit;
        if (phase == 0) bit = (rng.next() & 1) != 0;        // fair
        else if (phase == 1) bit = rng.next_double() < 0.8;  // biased
        else bit = true;                                     // stuck
        words[i >> 6] |=
            static_cast<std::uint64_t>(bit ? 1 : 0) << (i & 63);
        if (scalar.feed(bit, true)) ++scalar_alarms;
      }
      batched_alarms += batched.feed_block(words.data(), trng::common::Bits{nbits});
    }
  }
  EXPECT_EQ(batched_alarms, scalar_alarms);
  EXPECT_EQ(batched.total_alarms(), scalar.total_alarms());
  EXPECT_EQ(batched.repetition().alarms(), scalar.repetition().alarms());
  EXPECT_EQ(batched.proportion().alarms(), scalar.proportion().alarms());
  EXPECT_GT(batched_alarms, 0u);  // the stuck phase must trip something
}

TEST(OnlineHealthMonitor, CatchesBiasCollapse) {
  OnlineHealthMonitor m(0.95);
  common::Xoshiro256StarStar rng(6);
  bool fired = false;
  for (int i = 0; i < 50000 && !fired; ++i) {
    fired = m.feed(rng.next_double() < 0.9, true);
  }
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace trng::core
