// Beyond-the-paper ablation: the wrap-around (folded) refinement of the
// stochastic model.
//
// The paper's Eq. 3 treats the TDC as an unbounded axis of alternating
// bins. Because every oscillator tap feeds its own delay line, the
// observable first-edge position actually wraps with period d0 — and when
// d0 / (k t_step) sits near an unfavourable value, the wrapped image lands
// on the SAME output parity, collapsing the worst-case entropy below
// Eq. 3's bound. This bench quantifies the gap across the design space and
// demonstrates a die where the collapse is empirically visible.
#include <cstdio>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/trng.hpp"
#include "model/nonlinearity.hpp"
#include "model/stochastic_model.hpp"

int main() {
  using namespace trng;
  const std::size_t bits = bench::env_size("TRNG_BENCH_BITS", 40000);
  bench::print_header("Extension: folded (wrap-aware) entropy lower bound");

  core::PlatformParams platform;
  model::StochasticModel m(platform);

  std::printf("%-4s %-8s %-10s %-10s %-8s\n", "k", "tA[ns]", "Eq.3 bound",
              "folded", "gap");
  bench::print_rule(44);
  for (int k : {1, 2, 4}) {
    for (Cycles na : {1, 2, 5, 10, 20}) {
      const double t_a = static_cast<double>(na) * 10000.0;
      const double eq3 = m.entropy_lower_bound(t_a, k);
      const double folded = m.folded_entropy_lower_bound(t_a, k);
      std::printf("%-4d %-8llu %-10.4f %-10.4f %-8.4f\n", k,
                  static_cast<unsigned long long>(na) * 10, eq3, folded,
                  eq3 - folded);
    }
  }
  bench::print_rule(44);

  // Empirical demonstration: sweep dies at k=4, tA=100ns with white-only
  // noise (pinned tau) and show the worst die falls below Eq. 3 but not
  // below the folded+DNL-aware bound.
  std::printf("\nempirical die sweep (k=4, tA=100ns, white-only noise):\n");
  std::printf("%-6s %-12s %-12s %-12s %-12s\n", "die", "H(sim)",
              "Eq.3 bound", "folded", "DNL-aware");
  bench::print_rule(60);
  const double eq3 = m.entropy_lower_bound(100000.0, 4);
  const double folded = m.folded_entropy_lower_bound(100000.0, 4);
  for (std::uint64_t die = 1; die <= 5; ++die) {
    fpga::Fabric fabric(fpga::DeviceGeometry{}, 2000 + die);
    const auto fp =
        fpga::TrngFloorplan::canonical(fabric.geometry(), 3, 36, 0, 17);
    const auto elaborated = fabric.elaborate(fp, 4);
    const double dnl_bound = model::dnl_aware_entropy_bound(
        m, elaborated, 100000.0, 4,
        3.0 * fabric.spec().flip_flop.static_offset_sigma_ps);
    core::DesignParams p;
    p.k = 4;
    p.accumulation_cycles = 10;
    core::CarryChainTrng trng(fabric, p, die, sim::NoiseConfig::white_only());
    const double h = common::binary_entropy(
        trng.generate(trng::common::Bits{bits}).ones_fraction());
    std::printf("%-6llu %-12.4f %-12.4f %-12.4f %-12.4f%s\n",
                static_cast<unsigned long long>(die), h, eq3, folded,
                dnl_bound, h < eq3 ? "   <- below Eq. 3!" : "");
  }
  bench::print_rule(60);
  std::printf(
      "takeaway: Eq. 3 is NOT a sound per-die lower bound at k = 4 — the\n"
      "wrap pocket plus bin non-linearity push worst-case dies below it.\n"
      "The folded/DNL-aware bounds remain sound; design guidance: choose\n"
      "n, m, k so that d0/(k t_step) avoids near-even integers, or rely on\n"
      "XOR post-processing budgeted against the folded bound.\n");
  return 0;
}
