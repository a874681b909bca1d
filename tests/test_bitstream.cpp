// Unit tests for the packed bit container.
#include <gtest/gtest.h>

#include <limits>

#include "common/bitstream.hpp"
#include "common/rng.hpp"

namespace trng::common {
namespace {

TEST(BitStream, StartsEmpty) {
  BitStream bs;
  EXPECT_TRUE(bs.empty());
  EXPECT_EQ(bs.size(), 0u);
  EXPECT_EQ(bs.count_ones(), 0u);
}

TEST(BitStream, PushAndRead) {
  BitStream bs;
  bs.push_back(true);
  bs.push_back(false);
  bs.push_back(true);
  ASSERT_EQ(bs.size(), 3u);
  EXPECT_TRUE(bs[0]);
  EXPECT_FALSE(bs[1]);
  EXPECT_TRUE(bs[2]);
  EXPECT_EQ(bs.count_ones(), 2u);
}

TEST(BitStream, FromStringRoundTrip) {
  const std::string s = "10110100111000010101";
  const BitStream bs = BitStream::from_string(s);
  EXPECT_EQ(bs.to_string(), s);
}

TEST(BitStream, FromStringRejectsGarbage) {
  EXPECT_THROW(BitStream::from_string("10x1"), std::invalid_argument);
}

TEST(BitStream, AtThrowsOutOfRange) {
  BitStream bs = BitStream::from_string("101");
  EXPECT_TRUE(bs.at(0));
  EXPECT_THROW(bs.at(3), std::out_of_range);
}

TEST(BitStream, CrossesWordBoundaries) {
  BitStream bs;
  for (int i = 0; i < 200; ++i) bs.push_back(i % 3 == 0);
  ASSERT_EQ(bs.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(bs[static_cast<std::size_t>(i)], i % 3 == 0) << i;
  }
  EXPECT_EQ(bs.count_ones(), 67u);  // ceil(200/3)
}

TEST(BitStream, AppendBitsLsbFirst) {
  BitStream bs;
  bs.append_bits(0b1011, 4);  // LSB first: 1,1,0,1
  EXPECT_EQ(bs.to_string(), "1101");
  EXPECT_THROW(bs.append_bits(0, 65), std::invalid_argument);
}

TEST(BitStream, AppendAlignedAndUnaligned) {
  BitStream a;
  for (int i = 0; i < 64; ++i) a.push_back(i % 2 == 0);
  BitStream b = BitStream::from_string("111000");
  BitStream aligned = a;
  aligned.append(b);  // a is word-aligned
  EXPECT_EQ(aligned.size(), 70u);
  EXPECT_EQ(aligned.slice(64, 6).to_string(), "111000");

  BitStream c = BitStream::from_string("10");
  c.append(b);  // unaligned path
  EXPECT_EQ(c.to_string(), "10111000");
}

TEST(BitStream, SliceBoundsChecked) {
  BitStream bs = BitStream::from_string("110010");
  EXPECT_EQ(bs.slice(2, 3).to_string(), "001");
  EXPECT_EQ(bs.slice(0, 6).to_string(), "110010");
  EXPECT_THROW(bs.slice(4, 3), std::out_of_range);
}

TEST(BitStream, SliceRejectsOverflowingRange) {
  // begin + length wraps std::size_t; the naive `begin + length > size_`
  // check passed and handed out-of-bounds indices to operator[].
  BitStream bs = BitStream::from_string("110010");
  const auto huge = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(bs.slice(3, huge), std::out_of_range);
  EXPECT_THROW(bs.slice(huge, 2), std::out_of_range);
  EXPECT_THROW(bs.slice(huge, huge), std::out_of_range);
}

TEST(BitStream, ReserveRejectsOverflowingSize) {
  BitStream bs;
  EXPECT_THROW(bs.reserve(std::numeric_limits<std::size_t>::max()),
               std::length_error);
}

TEST(BitStream, XorFold) {
  // Groups of 3: 110 -> 0, 010 -> 1, trailing "1" dropped.
  BitStream bs = BitStream::from_string("1100101");
  EXPECT_EQ(bs.xor_fold(3).to_string(), "01");
  EXPECT_EQ(bs.xor_fold(1).to_string(), "1100101");
  EXPECT_THROW(bs.xor_fold(0), std::invalid_argument);
}

TEST(BitStream, XorFoldReducesBias) {
  // A heavily biased stream gets closer to balanced after folding.
  Xoshiro256StarStar rng(9);
  BitStream biased;
  for (int i = 0; i < 90000; ++i) biased.push_back(rng.next_double() < 0.7);
  const double b1 = biased.ones_fraction() - 0.5;
  const double b3 = biased.xor_fold(3).ones_fraction() - 0.5;
  EXPECT_LT(std::abs(b3), std::abs(b1));
  // Piling-up lemma: b3 ~ 4 * b1^3 = 0.032.
  EXPECT_NEAR(b3, 4.0 * b1 * b1 * b1, 0.01);
}

TEST(BitStream, OnesFractionThrowsOnEmpty) {
  BitStream bs;
  EXPECT_THROW(bs.ones_fraction(), std::logic_error);
}

TEST(BitStream, EqualityAndClear) {
  BitStream a = BitStream::from_string("1010");
  BitStream b = BitStream::from_string("1010");
  BitStream c = BitStream::from_string("1011");
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(a == BitStream{});
}

TEST(BitStream, AppendWordsUnalignedSplicesAcrossTail) {
  // Start off-alignment, then append word-packed batches of awkward sizes
  // (the generate_into -> append_words path): the result must equal the
  // bit-by-bit reference, for every starting shift class.
  Xoshiro256StarStar rng(99);
  for (unsigned prefix : {1u, 7u, 63u, 64u, 65u}) {
    BitStream packed;
    BitStream reference;
    for (unsigned i = 0; i < prefix; ++i) {
      const bool b = (rng.next() & 1) != 0;
      packed.push_back(b);
      reference.push_back(b);
    }
    for (std::size_t nbits : {1u, 63u, 64u, 65u, 130u}) {
      std::vector<std::uint64_t> words((nbits + 63) / 64);
      for (auto& w : words) w = rng.next();
      packed.append_words(words.data(), nbits);
      for (std::size_t i = 0; i < nbits; ++i) {
        reference.push_back(((words[i >> 6] >> (i & 63)) & 1ULL) != 0);
      }
    }
    ASSERT_EQ(packed.size(), reference.size());
    EXPECT_TRUE(packed == reference) << "prefix " << prefix;
  }
}

TEST(BitStream, AppendWordsIgnoresGarbageAboveNbits) {
  // The tail-bits-are-zero invariant must hold even when the caller's
  // buffer carries garbage past nbits (xor_fold and ones_fraction scan
  // whole words and rely on it).
  BitStream bs;
  const std::uint64_t all_ones = ~std::uint64_t{0};
  bs.append_words(&all_ones, 3);
  EXPECT_EQ(bs.to_string(), "111");
  EXPECT_DOUBLE_EQ(bs.ones_fraction(), 1.0);
  BitStream expected = BitStream::from_string("111");
  EXPECT_TRUE(bs == expected);

  // Same off-alignment: garbage in the spliced high part must not leak.
  std::uint64_t words[2] = {all_ones, all_ones};
  bs.append_words(words, 70);
  EXPECT_EQ(bs.size(), 73u);
  EXPECT_DOUBLE_EQ(bs.ones_fraction(), 1.0);
  EXPECT_TRUE(bs == BitStream::from_string(std::string(73, '1')));
}

TEST(BitStream, AdoptWordsClearsGarbageAboveNbits) {
  // The generator path hands its buffer over instead of copying it; the
  // result must equal the copying append_words path, tail bits cleared.
  const std::uint64_t all_ones = ~std::uint64_t{0};
  const std::vector<std::uint64_t> words = {0x0123456789ABCDEFULL, all_ones};
  BitStream copied;
  copied.append_words(words.data(), 70);
  const BitStream adopted = BitStream::adopt_words(words, 70);
  EXPECT_EQ(adopted.size(), 70u);
  EXPECT_TRUE(adopted == copied);
  EXPECT_EQ(adopted.words().back(), 0x3Fu);
  EXPECT_TRUE(BitStream::adopt_words({}, 0).empty());
  EXPECT_THROW((void)BitStream::adopt_words(words, 64), std::invalid_argument);
  EXPECT_THROW((void)BitStream::adopt_words(words, 129),
               std::invalid_argument);
}

TEST(BitStream, RangedCountOnesMatchesBitLoop) {
  Xoshiro256StarStar rng(9);
  BitStream bs;
  for (int w = 0; w < 4; ++w) bs.append_bits(rng.next(), 64);
  bs = bs.slice(0, 237);  // odd tail
  for (const std::size_t begin : {0u, 1u, 63u, 64u, 65u, 200u, 237u}) {
    for (const std::size_t length : {0u, 1u, 37u, 64u, 128u, 237u}) {
      if (begin + length > bs.size()) continue;
      std::size_t expected = 0;
      for (std::size_t i = 0; i < length; ++i) expected += bs[begin + i];
      EXPECT_EQ(bs.count_ones(begin, length), expected)
          << begin << "+" << length;
    }
  }
  EXPECT_THROW(bs.count_ones(0, 238), std::out_of_range);
  EXPECT_THROW(bs.count_ones(238, 0), std::out_of_range);
  EXPECT_THROW(bs.count_ones(1, std::numeric_limits<std::size_t>::max()),
               std::out_of_range);
}

TEST(BitStream, WordAtExtractsUnalignedWindows) {
  Xoshiro256StarStar rng(10);
  BitStream bs;
  for (int w = 0; w < 3; ++w) bs.append_bits(rng.next(), 64);
  bs = bs.slice(0, 150);
  for (std::size_t begin = 0; begin <= 150; ++begin) {
    std::uint64_t expected = 0;
    for (unsigned j = 0; j < 64; ++j) {
      const std::size_t i = begin + j;
      if (i < bs.size() && bs[i]) expected |= std::uint64_t{1} << j;
    }
    EXPECT_EQ(bs.word_at(begin), expected) << "begin " << begin;
  }
  // Past-the-end reads are defined and zero.
  EXPECT_EQ(bs.word_at(150), 0u);
  EXPECT_EQ(bs.word_at(1000), 0u);
  EXPECT_EQ(BitStream{}.word_at(0), 0u);
}

}  // namespace
}  // namespace trng::common
