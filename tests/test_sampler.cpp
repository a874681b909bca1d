// Unit tests for the sample controller (enable -> accumulate -> capture).
#include <gtest/gtest.h>

#include <vector>

#include "core/extractor.hpp"
#include "fpga/fabric.hpp"
#include "oracles.hpp"
#include "sim/sampler.hpp"

namespace trng::sim {
namespace {

/// One conversion into a fresh capture.
PackedCapture next_capture(SampleController& sc, Cycles accumulation_cycles) {
  PackedCapture pc;
  sc.next_capture_into(accumulation_cycles, pc);
  return pc;
}

fpga::ElaboratedTrng make_elaborated(std::uint64_t die = 42,
                                     const fpga::FabricSpec& spec = {}) {
  fpga::Fabric fabric(fpga::DeviceGeometry{}, die, spec);
  const auto fp =
      fpga::TrngFloorplan::canonical(fabric.geometry(), 3, 36, 0, 17);
  return fabric.elaborate(fp);
}

TEST(SampleController, RejectsBadArguments) {
  const auto e = make_elaborated();
  fpga::FlipFlopTimingSpec ff;
  EXPECT_THROW(SampleController(e, ff, NoiseConfig{}, 1,
                                SamplingMode::kRestart, 0.0),
               std::invalid_argument);
  SampleController sc(e, ff, NoiseConfig{}, 1);
  PackedCapture pc;
  EXPECT_THROW(sc.next_capture_into(0, pc), std::invalid_argument);
}

TEST(SampleController, LongLineCaptureWidensTheWindow) {
  // An m = 128 line reads about 2.2 ns before its clock edge, more than
  // the oscillator's default window minus the 500 ps lookahead; the
  // controller sizes the window from its lines, so captures work and still
  // see the oscillator's edge (128 taps span more than a half-period).
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 42);
  const auto e = fabric.elaborate(
      fpga::TrngFloorplan::canonical(fabric.geometry(), 3, 128, 0, 17));
  SampleController sc(e, fpga::FlipFlopTimingSpec{}, NoiseConfig{}, 11);
  EXPECT_GT(sc.oscillator().history_window(),
            RingOscillator::kDefaultHistoryWindowPs);
  PackedCapture pc;
  int regular_or_double = 0;
  for (int i = 0; i < 200; ++i) {
    ASSERT_NO_THROW(sc.next_capture_into(1, pc));
    const SnapshotClass cls = classify_packed(pc);
    regular_or_double += cls != SnapshotClass::kNoEdge ? 1 : 0;
  }
  EXPECT_EQ(pc.taps, 128);
  EXPECT_EQ(regular_or_double, 200);
  // The paper's m = 36 keeps the default.
  SampleController paper(make_elaborated(), fpga::FlipFlopTimingSpec{},
                         NoiseConfig{}, 11);
  EXPECT_EQ(paper.oscillator().history_window(),
            RingOscillator::kDefaultHistoryWindowPs);
}

TEST(SampleController, CaptureHasOneSnapshotPerLine) {
  const auto e = make_elaborated();
  SampleController sc(e, fpga::FlipFlopTimingSpec{}, NoiseConfig{}, 7);
  const auto cap = next_capture(sc, 1);
  ASSERT_EQ(cap.lines, 3);
  EXPECT_EQ(cap.taps, 36);
  EXPECT_EQ(cap.words_per_line, 1);
  ASSERT_EQ(cap.words.size(), 3u);
  for (std::uint64_t w : cap.words) EXPECT_EQ(w >> 36, 0u);  // tail zero
  EXPECT_DOUBLE_EQ(cap.sample_time_ps, 10000.0);
}

TEST(SampleController, SampleTimesAdvanceByAccumulationPlusOneCycle) {
  const auto e = make_elaborated();
  SampleController sc(e, fpga::FlipFlopTimingSpec{}, NoiseConfig{}, 7);
  const auto c1 = next_capture(sc, 5);
  const auto c2 = next_capture(sc, 5);
  EXPECT_DOUBLE_EQ(c1.sample_time_ps, 50000.0);
  EXPECT_DOUBLE_EQ(c2.sample_time_ps, 50000.0 + 10000.0 + 50000.0);
}

TEST(SampleController, RestartModeIsPhaseDeterministicWithoutNoise) {
  const auto e = make_elaborated(42, fpga::ideal_fabric_spec());
  fpga::FlipFlopTimingSpec ff = fpga::ideal_fabric_spec().flip_flop;
  NoiseConfig off = NoiseConfig::white_only();
  off.white_sigma_scale = 0.0;
  SampleController sc(e, ff, off, 9, SamplingMode::kRestart);
  const auto c1 = next_capture(sc, 1);
  const auto c2 = next_capture(sc, 1);
  EXPECT_EQ(c1.words, c2.words);  // identical phase, identical snapshot
}

TEST(SampleController, FreeRunningModeDrifts) {
  // Without restarts the oscillator phase moves relative to the sampling
  // grid, so consecutive noise-free captures generally differ.
  const auto e = make_elaborated(42, fpga::ideal_fabric_spec());
  fpga::FlipFlopTimingSpec ff = fpga::ideal_fabric_spec().flip_flop;
  NoiseConfig off = NoiseConfig::white_only();
  off.white_sigma_scale = 0.0;
  SampleController sc(e, ff, off, 9, SamplingMode::kFreeRunning);
  const auto c1 = next_capture(sc, 1);
  bool any_diff = false;
  for (int i = 0; i < 8 && !any_diff; ++i) {
    any_diff = next_capture(sc, 1).words != c1.words;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SampleController, DeterministicPerSeed) {
  const auto e = make_elaborated();
  SampleController a(e, fpga::FlipFlopTimingSpec{}, NoiseConfig{}, 1234);
  SampleController b(e, fpga::FlipFlopTimingSpec{}, NoiseConfig{}, 1234);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(next_capture(a, 1).words, next_capture(b, 1).words);
  }
}

TEST(SampleController, MetastableCounterAccumulates) {
  const auto e = make_elaborated();
  SampleController sc(e, fpga::FlipFlopTimingSpec{}, NoiseConfig{}, 5,
                      SamplingMode::kFreeRunning);
  PackedCapture pc;
  for (int i = 0; i < 500; ++i) sc.next_capture_into(1, pc);
  // Free-running sweeps all phases; some captures must hit the aperture.
  EXPECT_GT(sc.metastable_events(), 0u);
}

TEST(SampleController, RejectsMismatchedElaboration) {
  auto e = make_elaborated();
  e.lines.pop_back();  // now 3 stages but 2 lines
  EXPECT_THROW(
      SampleController(e, fpga::FlipFlopTimingSpec{}, NoiseConfig{}, 1),
      std::invalid_argument);
}

TEST(SampleController, PackedCaptureMatchesUnpackedCapture) {
  // Real captures, unpacked to one bool per tap, through the tap-at-a-time
  // Figure 4 and Figure 5 oracles: classify_packed and extract_packed must
  // agree with them on every capture, in both sampling modes (free-running
  // sweeps all Figure 4 classes). A controller that refills one reused
  // capture and a same-seed twin that shapes a fresh one every time must
  // also capture the same bits at the same instants.
  const auto e = make_elaborated();
  const core::EntropyExtractor extractor(36, 1);
  for (auto mode : {SamplingMode::kRestart, SamplingMode::kFreeRunning}) {
    SCOPED_TRACE(mode == SamplingMode::kRestart ? "restart" : "free-running");
    SampleController fresh(e, fpga::FlipFlopTimingSpec{}, NoiseConfig{}, 7,
                           mode);
    SampleController reused(e, fpga::FlipFlopTimingSpec{}, NoiseConfig{}, 7,
                            mode);
    PackedCapture pc;
    for (int iter = 0; iter < 200; ++iter) {
      const PackedCapture cap = next_capture(fresh, 2);
      reused.next_capture_into(2, pc);
      ASSERT_DOUBLE_EQ(pc.sample_time_ps, cap.sample_time_ps);
      ASSERT_EQ(pc.words, cap.words) << "capture " << iter;
      const std::vector<test::Snapshot> lines = test::unpack(pc);
      ASSERT_EQ(classify_packed(pc), test::classify_snapshots(lines))
          << "capture " << iter;
      const core::ExtractionResult packed = extractor.extract_packed(pc);
      const core::ExtractionResult scalar = test::extract_scalar(lines, 1);
      ASSERT_EQ(packed.edge_found, scalar.edge_found) << "capture " << iter;
      ASSERT_EQ(packed.edge_position, scalar.edge_position)
          << "capture " << iter;
      ASSERT_EQ(packed.bit, scalar.bit) << "capture " << iter;
    }
    EXPECT_EQ(fresh.metastable_events(), reused.metastable_events());
  }
}

}  // namespace
}  // namespace trng::sim
