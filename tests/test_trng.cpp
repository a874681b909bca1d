// Integration tests for the complete carry-chain TRNG datapath.
#include <gtest/gtest.h>

#include <memory>

#include "core/postprocess.hpp"
#include "core/trng.hpp"
#include "fpga/fabric.hpp"

namespace trng::core {
namespace {

fpga::Fabric default_fabric(std::uint64_t die = 42) {
  return fpga::Fabric(fpga::DeviceGeometry{}, die);
}

TEST(CarryChainTrng, RejectsInvalidParams) {
  const auto fabric = default_fabric();
  DesignParams p;
  p.m = 35;  // not a multiple of 4
  EXPECT_THROW(CarryChainTrng(fabric, p, 1), std::invalid_argument);
  p = DesignParams{};
  p.accumulation_cycles = 0;
  EXPECT_THROW(CarryChainTrng(fabric, p, 1), std::invalid_argument);
  p = DesignParams{};
  p.k = 37;
  EXPECT_THROW(CarryChainTrng(fabric, p, 1), std::invalid_argument);
  p = DesignParams{};
  p.np = 0;
  EXPECT_THROW(CarryChainTrng(fabric, p, 1), std::invalid_argument);
}

TEST(CarryChainTrng, GeneratesRequestedBitCount) {
  const auto fabric = default_fabric();
  CarryChainTrng trng(fabric, DesignParams{}, 1);
  EXPECT_EQ(trng.generate(trng::common::Bits{1000}).size(), 1000u);
  EXPECT_EQ(trng.diagnostics().captures, 1000u);
}

TEST(CarryChainTrng, DeterministicPerSeed) {
  const auto fabric = default_fabric();
  CarryChainTrng a(fabric, DesignParams{}, 99);
  CarryChainTrng b(fabric, DesignParams{}, 99);
  CarryChainTrng c(fabric, DesignParams{}, 100);
  const auto ba = a.generate(trng::common::Bits{2000});
  EXPECT_TRUE(ba == b.generate(trng::common::Bits{2000}));
  EXPECT_FALSE(ba == c.generate(trng::common::Bits{2000}));
}

TEST(CarryChainTrng, PaperResourceFigures) {
  const auto fabric = default_fabric();
  DesignParams p1;  // k = 1
  EXPECT_EQ(CarryChainTrng(fabric, p1, 1).resources().slices, 67);
  DesignParams p4;
  p4.k = 4;
  EXPECT_EQ(CarryChainTrng(fabric, p4, 1).resources().slices, 40);
}

TEST(CarryChainTrng, ThroughputAccounting) {
  const auto fabric = default_fabric();
  DesignParams p;
  p.accumulation_cycles = 1;
  p.np = 7;
  EXPECT_DOUBLE_EQ(CarryChainTrng(fabric, p, 1).info().throughput_bps,
                   100.0e6);
  // The post-processed rate is the XOR stage's, as the registry serves it.
  const XorCompressedSource folded(
      std::make_unique<CarryChainTrng>(fabric, p, 1), p.np);
  EXPECT_NEAR(folded.info().throughput_bps, 14.2857e6, 1e2);  // paper: 14.3 Mb/s
  DesignParams p2;
  p2.accumulation_cycles = 5;
  p2.np = 13;
  p2.k = 4;
  const XorCompressedSource folded2(
      std::make_unique<CarryChainTrng>(fabric, p2, 1), p2.np);
  EXPECT_NEAR(folded2.info().throughput_bps, 1.538e6, 1e3);  // paper: 1.53 Mb/s
}

TEST(CarryChainTrng, NoMissedEdgesAtM36) {
  // Paper Section 5.2: with m = 36 the edge is always captured.
  const auto fabric = default_fabric();
  DesignParams p;
  CarryChainTrng trng(fabric, p, 3);
  (void)trng.generate(trng::common::Bits{20000});
  EXPECT_EQ(trng.diagnostics().missed_edges, 0u);
}

TEST(CarryChainTrng, RawOutputIsNotConstant) {
  const auto fabric = default_fabric();
  CarryChainTrng trng(fabric, DesignParams{}, 4);
  const auto bits = trng.generate(trng::common::Bits{20000});
  const double ones = bits.ones_fraction();
  EXPECT_GT(ones, 0.02);
  EXPECT_LT(ones, 0.98);
}

TEST(CarryChainTrng, PostProcessedGenerateConsumesNpRawBits) {
  const auto fabric = default_fabric();
  DesignParams p;
  p.np = 7;
  auto owned = std::make_unique<CarryChainTrng>(fabric, p, 5);
  const CarryChainTrng& trng = *owned;
  XorCompressedSource folded(std::move(owned), p.np);
  const auto bits = folded.generate(trng::common::Bits{100});
  EXPECT_EQ(bits.size(), 100u);
  EXPECT_EQ(trng.diagnostics().captures, 700u);
}

TEST(CarryChainTrng, PostProcessingReducesBias) {
  const auto fabric = default_fabric(7);
  DesignParams raw_p;
  raw_p.accumulation_cycles = 1;
  CarryChainTrng raw_trng(fabric, raw_p, 6);
  const auto raw = raw_trng.generate(trng::common::Bits{70000});
  const auto post = raw.xor_fold(7);
  const double raw_bias = std::abs(raw.ones_fraction() - 0.5);
  const double post_bias = std::abs(post.ones_fraction() - 0.5);
  EXPECT_LE(post_bias, raw_bias + 0.01);
}

TEST(CarryChainTrng, FreeRunningShowsDoubleEdgesAndBubbles) {
  // Figure 4 phenomenology: sweeping all phases must produce regular
  // captures, double edges and (rarely) bubbles.
  const auto fabric = default_fabric(42);
  DesignParams p;
  p.mode = sim::SamplingMode::kFreeRunning;
  CarryChainTrng trng(fabric, p, 77);
  (void)trng.generate(trng::common::Bits{50000});
  const auto& d = trng.diagnostics();
  EXPECT_GT(d.double_edges, d.captures / 20);  // common
  EXPECT_GT(d.bubbles, 0u);                    // occasional
  EXPECT_LT(d.bubbles, d.captures / 20);       // but rare
  EXPECT_GT(trng.metastable_events(), 0u);
}

TEST(CarryChainTrng, MissedEdgesCountedWhenWindowTooShort) {
  // Section 5.2's failure mode: with too few taps the edge regularly falls
  // outside the TDC window. In restart mode the deterministic phase puts
  // it outside on every capture; free-running sampling drifts the phase
  // through the window, so only part of the captures miss.
  const auto fabric = default_fabric();
  DesignParams p;
  p.m = 8;
  CarryChainTrng restarted(fabric, p, 7);
  (void)restarted.generate(trng::common::Bits{2000});
  EXPECT_EQ(restarted.diagnostics().missed_edges, 2000u);

  p.mode = sim::SamplingMode::kFreeRunning;
  CarryChainTrng free_running(fabric, p, 7);
  (void)free_running.generate(trng::common::Bits{2000});
  EXPECT_GT(free_running.diagnostics().missed_edges, 0u);
  EXPECT_LT(free_running.diagnostics().missed_edges, 2000u);
}

TEST(CarryChainTrng, CustomPlacementLocation) {
  const auto fabric = default_fabric();
  // Placing elsewhere on the die must work and give (slightly) different
  // timing but identical resources.
  CarryChainTrng a(fabric, DesignParams{}, 1, sim::NoiseConfig{}, 0, 17);
  CarryChainTrng b(fabric, DesignParams{}, 1, sim::NoiseConfig{}, 20, 49);
  EXPECT_EQ(a.resources().slices, b.resources().slices);
  EXPECT_NE(a.elaborated().ro_stage_delay, b.elaborated().ro_stage_delay);
}

class DesignParamSweep
    : public ::testing::TestWithParam<std::tuple<int, Cycles>> {};

TEST_P(DesignParamSweep, AllConfigurationsProduceBits) {
  const auto [k, na] = GetParam();
  const auto fabric = default_fabric();
  DesignParams p;
  p.k = k;
  p.accumulation_cycles = na;
  CarryChainTrng trng(fabric, p, 11);
  EXPECT_EQ(trng.generate(trng::common::Bits{500}).size(), 500u);
  EXPECT_EQ(trng.diagnostics().missed_edges, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DesignParamSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(Cycles{1}, Cycles{2}, Cycles{20})));

}  // namespace
}  // namespace trng::core
