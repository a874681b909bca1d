// Unit tests for XOR post-processing (Section 4.5).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/rng.hpp"
#include "core/postprocess.hpp"

namespace trng::core {
namespace {

// Section 4.5's XOR post-processing: BitStream::xor_fold on a stream in
// memory, XorCompressedSource on a live source. Both run one fold.

/// Replays a fixed stream as a BitSource (the tail past its end reads 0).
class ReplaySource : public BitSource {
 public:
  explicit ReplaySource(common::BitStream bits) : bits_(std::move(bits)) {}

  void generate_into(std::uint64_t* words, common::Bits nbits) override {
    const std::size_t n = nbits.count();
    for (std::size_t w = 0; w < (n + 63) / 64; ++w) {
      const std::size_t len = std::min<std::size_t>(64, n - w * 64);
      std::uint64_t v = bits_.word_at(pos_ + w * 64);
      if (len < 64) v &= (std::uint64_t{1} << len) - 1;
      words[w] = v;
    }
    pos_ += n;
  }
  SourceInfo info() const override { return {"replay", "", "", 1.0}; }

 private:
  common::BitStream bits_;
  std::size_t pos_ = 0;
};

common::BitStream random_bits(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256StarStar rng(seed);
  common::BitStream raw;
  for (std::size_t w = 0; w < (n + 63) / 64; ++w) raw.append_bits(rng.next(), 64);
  return raw.slice(0, n);
}

TEST(XorPostProcessor, RejectsZeroRate) {
  EXPECT_THROW((void)common::BitStream::from_string("1").xor_fold(0),
               std::invalid_argument);
  EXPECT_THROW(XorCompressedSource(
                   std::make_unique<ReplaySource>(common::BitStream{}), 0),
               std::invalid_argument);
  EXPECT_THROW(XorCompressedSource(nullptr, 1), std::invalid_argument);
}

TEST(XorPostProcessor, Np1PassesThrough) {
  const common::BitStream raw = random_bits(1000, 4);
  EXPECT_TRUE(raw.xor_fold(1) == raw);
  XorCompressedSource pass(std::make_unique<ReplaySource>(raw), 1);
  EXPECT_TRUE(pass.generate(common::Bits{1000}) == raw);
}

TEST(XorPostProcessor, StreamingMatchesBlock) {
  // A source folded in odd chunks (the streaming form) equals the block
  // fold of the whole stream, across word seams of input and output and
  // for group sizes up to past one word.
  const common::BitStream raw = random_bits(20000, 1);
  for (unsigned np : {2u, 3u, 7u, 63u, 64u, 65u, 130u}) {
    SCOPED_TRACE(np);
    const common::BitStream block = raw.xor_fold(np);
    ASSERT_EQ(block.size(), raw.size() / np);
    XorCompressedSource folded(std::make_unique<ReplaySource>(raw), np);
    common::BitStream streamed;
    for (std::size_t chunk = 1; streamed.size() < block.size(); chunk += 37) {
      const std::size_t n = std::min(chunk, block.size() - streamed.size());
      streamed.append(folded.generate(common::Bits{n}));
    }
    EXPECT_TRUE(streamed == block);
    // Each output bit is the parity of its group.
    for (std::size_t i = 0; i < block.size(); i += 97) {
      EXPECT_EQ(block[i], raw.count_ones(i * np, np) % 2 == 1) << "bit " << i;
    }
  }
}

TEST(XorPostProcessor, KnownFold) {
  const auto raw = common::BitStream::from_string("110" "011" "1");
  EXPECT_EQ(raw.xor_fold(3).to_string(), "00");  // partial group dropped
  XorCompressedSource folded(std::make_unique<ReplaySource>(raw), 3);
  EXPECT_EQ(folded.generate(common::Bits{2}).to_string(), "00");
}

TEST(XorPostProcessor, PilingUpLemma) {
  // Empirical bias after np-fold XOR must follow Eq. 7:
  // b_pp = 2^(np-1) * b^np.
  common::Xoshiro256StarStar rng(2);
  common::BitStream biased;
  const double b = 0.25;  // P(1) = 0.75
  for (int i = 0; i < 600000; ++i) {
    biased.push_back(rng.next_double() < 0.5 + b);
  }
  for (unsigned np : {2u, 3u, 4u}) {
    const double expected =
        std::exp2(static_cast<double>(np) - 1.0) * std::pow(b, np);
    const auto out = biased.xor_fold(np);
    EXPECT_NEAR(std::fabs(out.ones_fraction() - 0.5), expected, 0.004)
        << "np = " << np;
    XorCompressedSource folded(std::make_unique<ReplaySource>(biased), np);
    EXPECT_TRUE(folded.generate(common::Bits{out.size()}) == out)
        << "np = " << np;
  }
}

}  // namespace
}  // namespace trng::core
