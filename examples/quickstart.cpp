// Quickstart: instantiate the paper's TRNG on a simulated Spartan-6 die,
// generate random bits, sanity-check them, and tour the repository's
// whole generator line-up through the BitSource registry.
//
//   build/examples/quickstart
//
// TRNG_EXAMPLE_BITS scales the generated stream (default 100000) so smoke
// tests and full runs share this binary.
#include <cstdio>
#include <memory>

#include "common/env.hpp"
#include "core/postprocess.hpp"
#include "core/source_registry.hpp"
#include "core/trng.hpp"
#include "fpga/fabric.hpp"
#include "stattests/battery.hpp"
#include "stattests/estimators.hpp"

int main() {
  using namespace trng;
  const std::size_t budget = common::env_size("TRNG_EXAMPLE_BITS", 100000);

  // 1. A die: geometry + seed. The same seed always gives the same die.
  fpga::Fabric fabric(fpga::DeviceGeometry{}, /*die_seed=*/2026);

  // 2. The paper's shipped configuration: n = 3 RO stages, m = 36 TDC
  //    taps, no down-sampling, t_A = 10 ns, XOR post-processing np = 7
  //    => 14.3 Mb/s at the 100 MHz system clock.
  core::DesignParams params;
  params.n = 3;
  params.m = 36;
  params.k = 1;
  params.accumulation_cycles = 1;
  params.np = 7;

  // The TRNG emits raw bits; the XOR stage on top of it folds np -> 1.
  auto owned = std::make_unique<core::CarryChainTrng>(fabric, params,
                                                      /*seed=*/1);
  const core::CarryChainTrng& trng = *owned;
  core::XorCompressedSource folded(std::move(owned), params.np);
  std::printf("TRNG instantiated: %d slices, %.2f Mb/s after compression\n",
              trng.resources().slices, folded.info().throughput_bps / 1.0e6);

  // 3. Generate post-processed output (batched through the BitSource layer).
  const auto bits = folded.generate(trng::common::Bits{budget});
  std::printf("generated %zu bits; ones fraction %.4f\n", bits.size(),
              bits.ones_fraction());
  std::printf("plug-in Shannon entropy (4-bit blocks): %.4f per bit\n",
              stat::shannon_entropy_estimate(bits));

  // 4. Statistical screen.
  stat::TestBattery battery;
  const auto report = battery.run(bits);
  std::printf("NIST SP 800-22: %zu tests applicable, %zu failed -> %s\n",
              report.applicable_count(), report.failed_count(),
              report.all_passed() ? "PASS" : "FAIL");

  // 5. Datapath diagnostics.
  const auto& d = trng.diagnostics();
  std::printf("captures %llu | double edges %llu | bubbles %llu | "
              "missed edges %llu\n",
              static_cast<unsigned long long>(d.captures),
              static_cast<unsigned long long>(d.double_edges),
              static_cast<unsigned long long>(d.bubbles),
              static_cast<unsigned long long>(d.missed_edges));

  // 6. The same die hosts every generator in the repository; the registry
  //    hands each one out as a ready-to-run BitSource (post-processing
  //    decorators already applied), so one loop covers the whole line-up.
  std::printf("\ncanonical sources (registry):\n");
  const std::size_t sample = budget < 4096 ? budget : 4096;
  for (const auto& factory : core::canonical_sources(fabric)) {
    auto source = factory.make(/*seed=*/1);
    const core::SourceInfo info = source->info();
    const auto stream = source->generate(trng::common::Bits{sample});
    std::printf("  %-12s %-28s %8.2f Mb/s  ones %.3f\n", factory.id.c_str(),
                info.name.c_str(), info.throughput_bps / 1.0e6,
                stream.ones_fraction());
  }
  return report.all_passed() ? 0 : 1;
}
