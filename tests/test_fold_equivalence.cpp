// common::xor_fold_words (prefix parity per input word, then a gather of
// each output word's group ends) against the per-bit fold it replaced,
// tests/oracles.hpp's xor_fold_per_bit. The input vector is sized to
// exactly the words the fold may read, so an over-read is a heap overflow
// under the asan preset, and the bits past the last group hold random
// garbage that must not reach the output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitstream.hpp"
#include "common/rng.hpp"
#include "oracles.hpp"

namespace trng {
namespace {

constexpr unsigned kGroupSizes[] = {1,  2,  3,  4,   5,   6,   7,  8,
                                    9,  31, 63, 64,  65,  127, 128, 129};
constexpr std::size_t kOutBits[] = {0, 1, 63, 64, 65, 1000, 4096};

TEST(FoldEquivalence, WordParallelFoldMatchesPerBitOracle) {
  common::Xoshiro256StarStar rng(2025);
  for (const unsigned np : kGroupSizes) {
    for (const std::size_t out_bits : kOutBits) {
      SCOPED_TRACE(testing::Message() << "np " << np << " out_bits "
                                      << out_bits);
      const std::size_t in_words = (out_bits * np + 63) / 64;
      std::vector<std::uint64_t> in(in_words);
      for (auto& w : in) w = rng.next();  // garbage past the last group too
      const std::size_t out_words = (out_bits + 63) / 64;
      std::vector<std::uint64_t> want(out_words, 0);
      // Poisoned: every word must be overwritten, tail bits zero.
      std::vector<std::uint64_t> got(out_words, ~0ULL);
      test::xor_fold_per_bit(in.data(), want.data(), out_bits, np);
      common::xor_fold_words(in.data(), got.data(), out_bits, np);
      EXPECT_EQ(want, got);
    }
  }
}

TEST(FoldEquivalence, BitStreamFoldMatchesPerBitOracle) {
  // BitStream::xor_fold folds straight into its result's words; lengths
  // that leave a partial group (dropped) and a partial output word.
  common::Xoshiro256StarStar rng(77);
  for (const unsigned np : kGroupSizes) {
    for (const std::size_t nbits :
         {std::size_t{np} * 1000 + np / 2, std::size_t{5000}}) {
      SCOPED_TRACE(testing::Message() << "np " << np << " nbits " << nbits);
      common::BitStream raw;
      for (std::size_t i = 0; i < nbits; i += 64) {
        raw.append_bits(rng.next(), static_cast<unsigned>(
                                        std::min<std::size_t>(64, nbits - i)));
      }
      const std::size_t out_bits = nbits / np;
      std::vector<std::uint64_t> want((out_bits + 63) / 64, 0);
      test::xor_fold_per_bit(raw.words().data(), want.data(), out_bits, np);
      const common::BitStream folded = raw.xor_fold(np);
      EXPECT_EQ(folded.size(), out_bits);
      EXPECT_EQ(folded.words(), want);
    }
  }
}

}  // namespace
}  // namespace trng
