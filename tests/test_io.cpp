// Unit tests for the bit-sequence file interchange.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/io.hpp"
#include "common/rng.hpp"

namespace trng::common {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("trng_io_test_") + name))
      .string();
}

class IoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }
  std::string track(const std::string& p) {
    paths_.push_back(p);
    return p;
  }
  std::vector<std::string> paths_;
};

TEST_F(IoTest, AsciiRoundTrip) {
  Xoshiro256StarStar rng(1);
  BitStream bits;
  for (int i = 0; i < 1000; ++i) bits.push_back(rng.next() & 1);
  const auto path = track(temp_path("ascii.txt"));
  write_ascii_bits(bits, path);
  EXPECT_TRUE(read_ascii_bits(path) == bits);
}

TEST_F(IoTest, AsciiHandlesEmptyAndOddLengths) {
  const auto path = track(temp_path("ascii2.txt"));
  write_ascii_bits(BitStream{}, path);
  EXPECT_TRUE(read_ascii_bits(path).empty());
  const auto odd = BitStream::from_string("101");
  write_ascii_bits(odd, path);
  EXPECT_TRUE(read_ascii_bits(path) == odd);
}

TEST_F(IoTest, AsciiRejectsGarbage) {
  const auto path = track(temp_path("garbage.txt"));
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("0101x01", f);
    std::fclose(f);
  }
  EXPECT_THROW(read_ascii_bits(path), std::invalid_argument);
}

TEST_F(IoTest, AsciiMissingFileThrows) {
  EXPECT_THROW(read_ascii_bits("/nonexistent/path/bits.txt"),
               std::runtime_error);
}

TEST_F(IoTest, BinaryRoundTrip) {
  Xoshiro256StarStar rng(2);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 1000u, 4097u}) {
    BitStream bits;
    for (std::size_t i = 0; i < n; ++i) bits.push_back(rng.next() & 1);
    const auto path = track(temp_path("bin.dat"));
    write_binary_bits(bits, path);
    EXPECT_TRUE(read_binary_bits(path) == bits) << "n = " << n;
  }
}

TEST_F(IoTest, BinaryDetectsTruncation) {
  const auto path = track(temp_path("trunc.dat"));
  BitStream bits = BitStream::from_string("10110010101");
  write_binary_bits(bits, path);
  // Chop the last byte off.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 1);
  EXPECT_THROW(read_binary_bits(path), std::runtime_error);
}

TEST_F(IoTest, BinaryRejectsOversizedHeader) {
  // A header count far beyond the file's one data byte must fail as a
  // truncated read, not as an allocation of the claimed size.
  for (const std::uint64_t count : {std::uint64_t{1} << 47,
                                    std::uint64_t{1} << 60}) {
    const auto path = track(temp_path("oversized.dat"));
    {
      std::ofstream out(path, std::ios::binary);
      for (int b = 0; b < 8; ++b) out.put(static_cast<char>(count >> (8 * b)));
      out.put('\x5a');
    }
    EXPECT_THROW(read_binary_bits(path), std::runtime_error)
        << "count = " << count;
  }
}

TEST_F(IoTest, BinaryIsCompact) {
  BitStream bits;
  for (int i = 0; i < 8000; ++i) bits.push_back(i % 2 == 0);
  const auto path = track(temp_path("compact.dat"));
  write_binary_bits(bits, path);
  EXPECT_EQ(std::filesystem::file_size(path), 8u + 1000u);
}

}  // namespace
}  // namespace trng::common
