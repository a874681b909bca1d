// Ablation of Section 5.2: choosing the delay-line length m.
//
// The paper: the edge must always be captured, which needs
// m > d0 / t_step ~ 29 taps; with m = 32 (8 CARRY4) the edge escaped in
// 0.8% of captures on real silicon (slow LUTs exceed the average d0), so
// the shipped design uses m = 36 (9 CARRY4).
//
// This bench sweeps m over several dies — including deliberately slow
// process corners — and reports the missed-edge rate per (m, die).
#include <cstdio>

#include "bench_util.hpp"
#include "core/trng.hpp"
#include "fpga/fabric.hpp"

int main() {
  using namespace trng;
  const std::size_t captures = bench::env_size("TRNG_BENCH_BITS", 20000);
  bench::print_header("Section 5.2 ablation: missed-edge rate vs m");

  std::printf("%-5s", "m");
  constexpr int kDies = 6;
  for (int die = 0; die < kDies; ++die) std::printf("  die%-7d", die);
  std::printf(" worst-case\n");
  bench::print_rule(76);

  for (int m : {28, 32, 36, 40}) {
    std::printf("%-5d", m);
    double worst = 0.0;
    for (int die = 0; die < kDies; ++die) {
      // Slow corner: the last two dies run 6% / 10% slow, modelling the
      // "some LUTs may be slower" observation.
      fpga::FabricSpec spec;
      if (die == kDies - 2) spec.lut.nominal_delay_ps *= 1.06;
      if (die == kDies - 1) spec.lut.nominal_delay_ps *= 1.10;
      fpga::Fabric fabric(fpga::DeviceGeometry{},
                          9000 + static_cast<std::uint64_t>(die), spec);
      core::DesignParams p;
      p.m = m;
      p.mode = sim::SamplingMode::kFreeRunning;  // sweep all phases
      core::CarryChainTrng trng(fabric, p, 100 + static_cast<unsigned>(die));
      (void)trng.generate(trng::common::Bits{captures});
      const double rate =
          100.0 * static_cast<double>(trng.diagnostics().missed_edges) /
          static_cast<double>(trng.diagnostics().captures);
      worst = rate > worst ? rate : worst;
      std::printf("  %7.3f%%", rate);
    }
    std::printf("  %7.3f%%\n", worst);
  }
  bench::print_rule(76);
  std::printf(
      "paper: m = 32 missed 0.8%% of edges; m = 36 captured every edge.\n"
      "expected shape: misses vanish once m * t_step comfortably exceeds\n"
      "the slowest die's d0 (m >= 36).\n");
  return 0;
}
