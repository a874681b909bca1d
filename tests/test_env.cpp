// Unit tests for the environment size knobs (src/common/env.hpp): only a
// plain, non-zero run of decimal digits that fits in std::size_t is taken;
// everything else falls back, so a typo can never size a run at 2^64.
#include "common/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace {

constexpr const char* kVar = "TRNG_TEST_ENV_SIZE";
constexpr std::size_t kFallback = 7;

std::size_t parse(const char* value) {
  ::setenv(kVar, value, 1);
  const std::size_t result = trng::common::env_size(kVar, kFallback);
  ::unsetenv(kVar);
  return result;
}

TEST(EnvSize, ParsesDigits) { EXPECT_EQ(parse("123"), 123u); }

TEST(EnvSize, NegativeFallsBack) { EXPECT_EQ(parse("-5"), kFallback); }

TEST(EnvSize, SuffixFallsBack) { EXPECT_EQ(parse("4k"), kFallback); }

TEST(EnvSize, ZeroFallsBack) { EXPECT_EQ(parse("0"), kFallback); }

TEST(EnvSize, EmptyFallsBack) { EXPECT_EQ(parse(""), kFallback); }

TEST(EnvSize, OverflowFallsBack) {
  // 2^64 = 18446744073709551616: one past the largest 64-bit value.
  EXPECT_EQ(parse("18446744073709551616"), kFallback);
}

}  // namespace
