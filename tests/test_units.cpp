// Unit tests for the strong-typed Bits/Words layer (src/common/units.hpp):
// explicit construction, same-type arithmetic, the four named conversions,
// and the overflow and underflow checks the SA002 analyzer rule assumes.
#include "common/units.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

namespace {

using trng::common::bit_offset;
using trng::common::Bits;
using trng::common::bits_to_words;
using trng::common::word_index;
using trng::common::Words;
using trng::common::words_to_bits;

TEST(Units, DefaultIsZero) {
  EXPECT_EQ(Bits{}.count(), 0u);
  EXPECT_EQ(Words{}.count(), 0u);
  EXPECT_TRUE(Bits{}.is_zero());
  EXPECT_TRUE(Words{}.is_zero());
}

TEST(Units, ExplicitConstructionRoundTrips) {
  EXPECT_EQ(Bits{4096}.count(), 4096u);
  EXPECT_EQ(Words{64}.count(), 64u);
  EXPECT_FALSE(Bits{1}.is_zero());
}

TEST(Units, ComparisonIsValueOrder) {
  EXPECT_EQ(Bits{7}, Bits{7});
  EXPECT_NE(Bits{7}, Bits{8});
  EXPECT_LT(Bits{7}, Bits{8});
  EXPECT_GE(Words{3}, Words{3});
  EXPECT_GT(Words{4}, Words{3});
}

TEST(Units, SameTypeArithmetic) {
  EXPECT_EQ(Bits{3} + Bits{4}, Bits{7});
  EXPECT_EQ(Bits{7} - Bits{4}, Bits{3});
  EXPECT_EQ(Words{3} + Words{4}, Words{7});
  EXPECT_EQ(Bits{5} * 3u, Bits{15});
  EXPECT_EQ(3u * Words{5}, Words{15});
  Bits acc{1};
  acc += Bits{2};
  EXPECT_EQ(acc, Bits{3});
  acc -= Bits{1};
  EXPECT_EQ(acc, Bits{2});
}

TEST(Units, SubtractionUnderflowThrows) {
  EXPECT_THROW((void)(Bits{3} - Bits{4}), std::underflow_error);
  EXPECT_THROW((void)(Words{0} - Words{1}), std::underflow_error);
}

TEST(Units, MultiplicationOverflowThrows) {
  const Bits huge{std::numeric_limits<std::uint64_t>::max() / 2 + 1};
  EXPECT_THROW((void)(huge * 2u), std::overflow_error);
  const Words whuge{std::numeric_limits<std::uint64_t>::max() / 2 + 1};
  EXPECT_THROW((void)(whuge * 2u), std::overflow_error);
  EXPECT_EQ(huge * 0u, Bits{0});  // zero factor can never overflow
}

TEST(Units, BitsToWordsIsCeiling) {
  EXPECT_EQ(bits_to_words(Bits{0}), Words{0});
  EXPECT_EQ(bits_to_words(Bits{1}), Words{1});
  EXPECT_EQ(bits_to_words(Bits{63}), Words{1});
  EXPECT_EQ(bits_to_words(Bits{64}), Words{1});
  EXPECT_EQ(bits_to_words(Bits{65}), Words{2});
  EXPECT_EQ(bits_to_words(Bits{4096}), Words{64});
}

TEST(Units, WordsToBitsIsExactAndChecked) {
  EXPECT_EQ(words_to_bits(Words{0}), Bits{0});
  EXPECT_EQ(words_to_bits(Words{64}), Bits{4096});
  // Round trip for whole-word counts.
  EXPECT_EQ(bits_to_words(words_to_bits(Words{123})), Words{123});
  const Words too_big{std::numeric_limits<std::uint64_t>::max() / 64 + 1};
  EXPECT_THROW((void)words_to_bits(too_big), std::overflow_error);
}

TEST(Units, WordIndexIsFloorNotCeiling) {
  EXPECT_EQ(word_index(Bits{0}), Words{0});
  EXPECT_EQ(word_index(Bits{63}), Words{0});
  EXPECT_EQ(word_index(Bits{64}), Words{1});
  EXPECT_EQ(word_index(Bits{65}), Words{1});
  // The capacity/index distinction that motivates two separate helpers:
  EXPECT_EQ(bits_to_words(Bits{65}), Words{2});
}

TEST(Units, BitOffsetWrapsAt64) {
  EXPECT_EQ(bit_offset(Bits{0}), 0u);
  EXPECT_EQ(bit_offset(Bits{63}), 63u);
  EXPECT_EQ(bit_offset(Bits{64}), 0u);
  EXPECT_EQ(bit_offset(Bits{130}), 2u);
}

TEST(Units, ConstexprUsable) {
  static_assert(bits_to_words(Bits{4096}) == Words{64});
  static_assert(words_to_bits(Words{2}) == Bits{128});
  static_assert(word_index(Bits{100}) == Words{1});
  static_assert(bit_offset(Bits{100}) == 36u);
  SUCCEED();
}

}  // namespace
