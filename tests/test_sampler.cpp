// Unit tests for the sample controller (enable -> accumulate -> capture).
#include <gtest/gtest.h>

#include "fpga/fabric.hpp"
#include "sim/sampler.hpp"

namespace trng::sim {
namespace {

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
  EXPECT_THROW(sc.next_capture(0), std::invalid_argument);
}

TEST(SampleController, CaptureHasOneSnapshotPerLine) {
  const auto e = make_elaborated();
  SampleController sc(e, fpga::FlipFlopTimingSpec{}, NoiseConfig{}, 7);
  const auto cap = sc.next_capture(1);
  ASSERT_EQ(cap.lines.size(), 3u);
  for (const auto& snap : cap.lines) EXPECT_EQ(snap.size(), 36u);
  EXPECT_DOUBLE_EQ(cap.sample_time_ps, 10000.0);
}

TEST(SampleController, SampleTimesAdvanceByAccumulationPlusOneCycle) {
  const auto e = make_elaborated();
  SampleController sc(e, fpga::FlipFlopTimingSpec{}, NoiseConfig{}, 7);
  const auto c1 = sc.next_capture(5);
  const auto c2 = sc.next_capture(5);
  EXPECT_DOUBLE_EQ(c1.sample_time_ps, 50000.0);
  EXPECT_DOUBLE_EQ(c2.sample_time_ps, 50000.0 + 10000.0 + 50000.0);
}

TEST(SampleController, RestartModeIsPhaseDeterministicWithoutNoise) {
  const auto e = make_elaborated(42, fpga::ideal_fabric_spec());
  fpga::FlipFlopTimingSpec ff = fpga::ideal_fabric_spec().flip_flop;
  NoiseConfig off = NoiseConfig::white_only();
  off.white_sigma_scale = 0.0;
  SampleController sc(e, ff, off, 9, SamplingMode::kRestart);
  const auto c1 = sc.next_capture(1);
  const auto c2 = sc.next_capture(1);
  EXPECT_EQ(c1.lines, c2.lines);  // identical phase, identical snapshot
}

TEST(SampleController, FreeRunningModeDrifts) {
  // Without restarts the oscillator phase moves relative to the sampling
  // grid, so consecutive noise-free captures generally differ.
  const auto e = make_elaborated(42, fpga::ideal_fabric_spec());
  fpga::FlipFlopTimingSpec ff = fpga::ideal_fabric_spec().flip_flop;
  NoiseConfig off = NoiseConfig::white_only();
  off.white_sigma_scale = 0.0;
  SampleController sc(e, ff, off, 9, SamplingMode::kFreeRunning);
  const auto c1 = sc.next_capture(1);
  bool any_diff = false;
  for (int i = 0; i < 8 && !any_diff; ++i) {
    any_diff = !(sc.next_capture(1).lines == c1.lines);
  }
  EXPECT_TRUE(any_diff);
}

TEST(SampleController, DeterministicPerSeed) {
  const auto e = make_elaborated();
  SampleController a(e, fpga::FlipFlopTimingSpec{}, NoiseConfig{}, 1234);
  SampleController b(e, fpga::FlipFlopTimingSpec{}, NoiseConfig{}, 1234);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.next_capture(1).lines, b.next_capture(1).lines);
  }
}

TEST(SampleController, MetastableCounterAccumulates) {
  const auto e = make_elaborated();
  SampleController sc(e, fpga::FlipFlopTimingSpec{}, NoiseConfig{}, 5,
                      SamplingMode::kFreeRunning);
  for (int i = 0; i < 500; ++i) (void)sc.next_capture(1);
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
  // next_capture and next_capture_into run the same capture (the first
  // unpacks it), so identically-seeded controllers must agree bit for
  // bit, with identical sample times, and classify_packed must agree with
  // classify_snapshots on every capture — in both sampling modes
  // (free-running sweeps all Figure-4 classes). That capture matches the
  // dense per-tap capture in law; test_capture_equivalence.cpp checks it.
  const auto e = make_elaborated();
  for (auto mode : {SamplingMode::kRestart, SamplingMode::kFreeRunning}) {
    SCOPED_TRACE(mode == SamplingMode::kRestart ? "restart" : "free-running");
    SampleController unpacked(e, fpga::FlipFlopTimingSpec{}, NoiseConfig{},
                              7, mode);
    SampleController packed(e, fpga::FlipFlopTimingSpec{}, NoiseConfig{}, 7,
                            mode);
    PackedCapture pc;
    for (int iter = 0; iter < 60; ++iter) {
      const CaptureResult cap = unpacked.next_capture(2);
      packed.next_capture_into(2, pc);
      ASSERT_DOUBLE_EQ(pc.sample_time_ps, cap.sample_time_ps);
      ASSERT_EQ(pc.lines, static_cast<int>(cap.lines.size()));
      ASSERT_EQ(pc.taps, static_cast<int>(cap.lines.front().size()));
      for (int i = 0; i < pc.lines; ++i) {
        const std::uint64_t* words = pc.line(i);
        for (int j = 0; j < pc.taps; ++j) {
          ASSERT_EQ(static_cast<bool>((words[j >> 6] >> (j & 63)) & 1ULL),
                    cap.lines[static_cast<std::size_t>(i)]
                             [static_cast<std::size_t>(j)])
              << "capture " << iter << " line " << i << " tap " << j;
        }
      }
      ASSERT_EQ(classify_packed(pc), classify_snapshots(cap.lines))
          << "capture " << iter;
    }
    EXPECT_EQ(unpacked.metastable_events(), packed.metastable_events());
  }
}

}  // namespace
}  // namespace trng::sim
