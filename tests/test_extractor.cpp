// Unit tests for the entropy extractor (Figure 5): XOR fold, first-edge
// priority encoding, bubble tolerance, double-edge handling, down-sampling.
// Captures are built from '0'/'1' strings, tap 0 first.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/extractor.hpp"
#include "oracles.hpp"

namespace trng::core {
namespace {

ExtractionResult extract(const EntropyExtractor& ex,
                         const std::vector<std::string>& lines) {
  return ex.extract_packed(test::packed_capture(lines));
}

TEST(EntropyExtractor, RejectsBadConstruction) {
  EXPECT_THROW(EntropyExtractor(1), std::invalid_argument);
  EXPECT_THROW(EntropyExtractor(8, 0), std::invalid_argument);
  EXPECT_THROW(EntropyExtractor(8, 9), std::invalid_argument);
}

TEST(EntropyExtractor, RejectsBadSnapshots) {
  EntropyExtractor ex(8);
  EXPECT_THROW((void)ex.extract_packed(sim::PackedCapture{}),
               std::invalid_argument);
  EXPECT_THROW((void)extract(ex, {}), std::invalid_argument);
  EXPECT_THROW((void)extract(ex, {"1010"}), std::invalid_argument);
}

TEST(EntropyExtractor, XorFoldCombinesLines) {
  // 11110000 ^ 11111100 = 00001100: the folded vector's first edge sits
  // between taps 3 and 4, though neither line has an edge there.
  EntropyExtractor ex(8);
  const auto r = extract(ex, {"11110000", "11111100"});
  EXPECT_TRUE(r.edge_found);
  EXPECT_EQ(r.edge_position, 3);
  EXPECT_TRUE(r.bit);
}

TEST(EntropyExtractor, DecodesSingleEdgePosition) {
  EntropyExtractor ex(8);
  // Edge between taps 2 and 3 -> position 2 -> even -> bit 0.
  auto r = extract(ex, {"11100000"});
  EXPECT_TRUE(r.edge_found);
  EXPECT_EQ(r.edge_position, 2);
  EXPECT_FALSE(r.bit);
  // Edge between taps 3 and 4 -> position 3 -> odd -> bit 1.
  r = extract(ex, {"11110000"});
  EXPECT_EQ(r.edge_position, 3);
  EXPECT_TRUE(r.bit);
}

TEST(EntropyExtractor, PolarityOfRunDoesNotMatter) {
  EntropyExtractor ex(8);
  const auto a = extract(ex, {"11100000"});
  const auto b = extract(ex, {"00011111"});
  EXPECT_EQ(a.edge_position, b.edge_position);
  EXPECT_EQ(a.bit, b.bit);
}

TEST(EntropyExtractor, NoEdgeReportsMiss) {
  EntropyExtractor ex(8);
  auto r = extract(ex, {"11111111"});
  EXPECT_FALSE(r.edge_found);
  EXPECT_EQ(r.edge_position, -1);
  r = extract(ex, {"00000000"});
  EXPECT_FALSE(r.edge_found);
  // Two all-constant lines that XOR to all-ones: still no edge.
  r = extract(ex, {"11111111", "00000000"});
  EXPECT_FALSE(r.edge_found);
}

TEST(EntropyExtractor, DoubleEdgeDecodesFirstOnly) {
  // Paper: "The entropy extractor always decodes the first edge and
  // ignores the second one" (Figure 4b). First edge at position 1,
  // second at position 5 -> output reflects position 1 (odd -> 1).
  EntropyExtractor ex(8);
  const auto r = extract(ex, {"11000011"});
  EXPECT_TRUE(r.edge_found);
  EXPECT_EQ(r.edge_position, 1);
  EXPECT_TRUE(r.bit);
}

TEST(EntropyExtractor, DoubleEdgeAcrossLines) {
  // Edges in two different lines: the earlier (lower tap index) wins.
  EntropyExtractor ex(8);
  const auto r =
      extract(ex, {"11111100", "11000000"});  // fold: 00111100
  EXPECT_EQ(r.edge_position, 1);
}

TEST(EntropyExtractor, BubbleBehindEdgeIsIgnored) {
  // A bubble deeper than the first edge does not change the output
  // (priority decoding, Figure 4c).
  EntropyExtractor ex(10);
  const auto clean = extract(ex, {"1110000000"});
  const auto bubbled = extract(ex, {"1110010000"});  // glitch at tap 5
  EXPECT_EQ(clean.edge_position, bubbled.edge_position);
  EXPECT_EQ(clean.bit, bubbled.bit);
}

TEST(EntropyExtractor, BubbleBeforeEdgeShiftsDecodedPosition) {
  // A bubble in front of the true edge IS decoded as the first edge —
  // the priority decoder cannot distinguish it; this is the residual
  // metastability effect the design tolerates.
  EntropyExtractor ex(10);
  const auto r = extract(ex, {"1011000000"});
  EXPECT_EQ(r.edge_position, 0);
}

TEST(EntropyExtractor, DownsamplingMergesBins) {
  EntropyExtractor ex(16, 4);
  // Position 5 -> merged bin 1 -> odd -> bit 1.
  auto r = extract(ex, {"1111110000000000"});
  EXPECT_EQ(r.edge_position, 5);
  EXPECT_TRUE(r.bit);
  // Position 2 -> merged bin 0 -> bit 0.
  r = extract(ex, {"1110000000000000"});
  EXPECT_FALSE(r.bit);
  // Position 11 -> merged bin 2 -> bit 0.
  r = extract(ex, {"1111111111110000"});
  EXPECT_EQ(r.edge_position, 11);
  EXPECT_FALSE(r.bit);
}

class ParitySweep : public ::testing::TestWithParam<int> {};

TEST_P(ParitySweep, NeighbouringPositionsAlternate) {
  // The core digitization property: neighbouring (down-sampled) bins must
  // decode to different bits (Section 4.2 "neighboring states of the TDC
  // are encoded using different bits").
  const int k = GetParam();
  const int m = 32;
  EntropyExtractor ex(m, k);
  int prev_bin = -1;
  bool prev_bit = false;
  for (int pos = 0; pos + 1 < m; ++pos) {
    std::string s(static_cast<std::size_t>(m), '0');
    for (int j = 0; j <= pos; ++j) s[static_cast<std::size_t>(j)] = '1';
    const auto r = extract(ex, {s});
    ASSERT_TRUE(r.edge_found);
    ASSERT_EQ(r.edge_position, pos);
    const int bin = pos / k;
    if (prev_bin >= 0 && bin != prev_bin) {
      EXPECT_NE(r.bit, prev_bit) << "bins " << prev_bin << " -> " << bin;
    }
    prev_bin = bin;
    prev_bit = r.bit;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParitySweep, ::testing::Values(1, 2, 4, 8));

TEST(EntropyExtractor, PackedExtractMatchesScalar) {
  // The word-level fold and priority encode against the tap-at-a-time
  // Figure 5 oracle, across the Figure 4 classes and the down-sampling
  // factors.
  const std::vector<std::vector<std::string>> cases = {
      {"11100000"},              // single edge
      {"11011000"},              // double edge
      {"11101111"},              // bubble behind the edge
      {"10111111"},              // bubble at the front
      {"11111111"},              // no edge
      {"11110000", "11111100"},  // multi-line fold
      {"11000000", "00001111", "00000011"},
  };
  for (int k : {1, 2, 4}) {
    EntropyExtractor ex(8, k);
    for (const auto& lines : cases) {
      SCOPED_TRACE(lines.front());
      const auto pc = test::packed_capture(lines);
      const ExtractionResult a = test::extract_scalar(test::unpack(pc), k);
      const ExtractionResult b = ex.extract_packed(pc);
      EXPECT_EQ(a.edge_found, b.edge_found);
      EXPECT_EQ(a.edge_position, b.edge_position);
      EXPECT_EQ(a.bit, b.bit);
    }
  }
}

TEST(EntropyExtractor, PackedExtractCrossesWordBoundary) {
  // m > 64 exercises the multi-word priority encode: the first edge can
  // sit in the second word or exactly on the 63/64 seam, and lines fold
  // across both words.
  for (const int m : {70, 100}) {
    SCOPED_TRACE(m);
    EntropyExtractor ex(m);
    for (int pos : {0, 62, 63, 64, 68, m - 2}) {
      std::string s(static_cast<std::size_t>(m), '0');
      for (int j = 0; j <= pos; ++j) s[static_cast<std::size_t>(j)] = '1';
      const auto pc = test::packed_capture({s});
      const ExtractionResult b = ex.extract_packed(pc);
      ASSERT_TRUE(b.edge_found);
      EXPECT_EQ(b.edge_position, pos);
      EXPECT_EQ(b.bit, test::extract_scalar(test::unpack(pc), 1).bit);
    }
    // Two lines whose only difference is past the seam: the folded edge
    // lies in the second word.
    std::string a(static_cast<std::size_t>(m), '1');
    std::string b = a;
    for (std::size_t j = 66; j < b.size(); ++j) b[j] = '0';
    EXPECT_EQ(extract(ex, {a, b}).edge_position, 65);
    // And the no-edge miss on a wide line.
    EXPECT_FALSE(extract(ex, {a}).edge_found);
  }
}

TEST(EntropyExtractor, PackedExtractRejectsShapeMismatch) {
  EntropyExtractor ex(8);
  EXPECT_THROW((void)ex.extract_packed(sim::PackedCapture{}),
               std::invalid_argument);
  EXPECT_THROW((void)extract(ex, {"1100"}), std::invalid_argument);
}

}  // namespace
}  // namespace trng::core
