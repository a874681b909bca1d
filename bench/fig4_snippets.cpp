// Reproduces Figure 4: representative TDC data snippets —
// (a) regular sampling, (b) double edge, (c) bubbles in the code —
// plus their occurrence statistics on the simulated hardware.
//
// The TRNG is run in free-running mode so the sampling phase sweeps the
// whole oscillator period and all three phenomena appear.
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "core/extractor.hpp"
#include "core/trng.hpp"
#include "fpga/fabric.hpp"
#include "sim/sampler.hpp"

namespace {

using namespace trng;

/// Line `line` of `cap` as '0'/'1', tap 0 first.
std::string render(const sim::PackedCapture& cap, int line) {
  const std::uint64_t* words = cap.line(line);
  std::string s;
  for (int j = 0; j < cap.taps; ++j) {
    s.push_back(((words[j >> 6] >> (j & 63)) & 1ULL) != 0 ? '1' : '0');
  }
  return s;
}

}  // namespace

int main() {
  const std::size_t captures = bench::env_size("TRNG_BENCH_BITS", 200000);
  bench::print_header("Figure 4: TDC data snippets and their statistics");

  fpga::Fabric fabric(fpga::DeviceGeometry{}, 42);
  const auto floorplan =
      fpga::TrngFloorplan::canonical(fabric.geometry(), 3, 36, 0, 17);
  const auto elaborated = fabric.elaborate(floorplan);
  sim::SampleController sampler(elaborated, fabric.spec().flip_flop,
                                sim::NoiseConfig{}, 77,
                                sim::SamplingMode::kFreeRunning);
  core::EntropyExtractor extractor(36, 1);

  std::size_t counts[4] = {};  // regular, double, bubbles, no-edge
  bool shown[4] = {};
  std::printf("examples (C1..C3 = the three delay lines, tap 0 first):\n\n");

  sim::PackedCapture cap;
  for (std::size_t i = 0; i < captures; ++i) {
    sampler.next_capture_into(1, cap);
    const auto cls = sim::classify_packed(cap);
    std::size_t idx = 0;
    const char* label = nullptr;
    switch (cls) {
      case sim::SnapshotClass::kRegular:
        idx = 0;
        label = "(a) regular sampling";
        break;
      case sim::SnapshotClass::kDoubleEdge:
        idx = 1;
        label = "(b) double edge (extractor decodes the first)";
        break;
      case sim::SnapshotClass::kBubbles:
        idx = 2;
        label = "(c) bubbles in the code (filtered by priority decode)";
        break;
      case sim::SnapshotClass::kNoEdge:
        idx = 3;
        label = "(!) no edge captured";
        break;
    }
    ++counts[idx];
    if (!shown[idx] && label != nullptr) {
      shown[idx] = true;
      std::printf("%s\n", label);
      for (int l = 0; l < cap.lines; ++l) {
        std::printf("  C%d: %s\n", l + 1, render(cap, l).c_str());
      }
      const auto r = extractor.extract_packed(cap);
      std::printf("  -> edge position %d, bit %d\n\n", r.edge_position,
                  r.bit ? 1 : 0);
    }
  }

  const double n = static_cast<double>(captures);
  std::printf("occurrence statistics over %zu captures:\n", captures);
  std::printf("  regular      : %8zu (%6.3f%%)\n", counts[0],
              100.0 * static_cast<double>(counts[0]) / n);
  std::printf("  double edge  : %8zu (%6.3f%%)\n", counts[1],
              100.0 * static_cast<double>(counts[1]) / n);
  std::printf("  bubbles      : %8zu (%6.3f%%)\n", counts[2],
              100.0 * static_cast<double>(counts[2]) / n);
  std::printf("  missed edge  : %8zu (%6.3f%%)   (paper: never at m = 36)\n",
              counts[3], 100.0 * static_cast<double>(counts[3]) / n);
  std::printf("  metastable FF captures: %llu\n",
              static_cast<unsigned long long>(sampler.metastable_events()));
  return 0;
}
