// Robustness ablation (paper Section 3): "the delay of the oscillator
// elements as well as the time-step of the conversion can vary due to the
// temperature or voltage variations and [the] signal edge has to be
// detected under the worst-case conditions."
//
// Sweeps the commercial environmental envelope and reports, per operating
// point: the scaled d0 and t_step, the missed-edge rate at the paper's
// m = 36 (must stay zero — both the oscillator and the TDC scale together,
// so the m-margin survives), the raw-entropy estimate, and the screen
// verdict at the Table-1 working point.
#include <cstdio>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/trng.hpp"
#include "fpga/operating_point.hpp"
#include "stattests/battery.hpp"

int main() {
  using namespace trng;
  const std::size_t bits = bench::env_size("TRNG_BENCH_BITS", 50000);
  bench::print_header(
      "Environmental robustness: temperature / voltage envelope");

  const fpga::Fabric nominal(fpga::DeviceGeometry{}, 42);
  const fpga::OperatingPoint points[] = {
      fpga::OperatingPoint::cold_high_voltage(),
      {0.0, 1.2},
      fpga::OperatingPoint::nominal(),
      {85.0, 1.2},
      fpga::OperatingPoint::hot_low_voltage(),
  };

  std::printf("%-18s %-8s %-8s %-9s %-9s %-10s %s\n", "operating point",
              "d0[ps]", "t_s[ps]", "sigma[ps]", "miss rate", "H(sim,np7)",
              "passes at");
  bench::print_rule(80);

  for (const auto& op : points) {
    const fpga::Fabric fabric = nominal.at(op);
    const auto fp =
        fpga::TrngFloorplan::canonical(fabric.geometry(), 3, 36, 0, 17);
    const auto elaborated = fabric.elaborate(fp);
    const double d0 = elaborated.ro_half_period() / 3.0;
    const double t_step = elaborated.lines[0].total_delay() / 36.0;

    core::DesignParams params;  // Table-1 working point: k=1, tA=10 ns
    core::CarryChainTrng trng(fabric, params, 9);
    const auto raw = trng.generate(trng::common::Bits{bits * 8});
    const auto out = raw.xor_fold(7);
    const double miss_rate =
        static_cast<double>(trng.diagnostics().missed_edges) /
        static_cast<double>(trng.diagnostics().captures);

    // The exact np needed wobbles with the operating point's tau; search
    // upward from the Table-1 value like the n_NIST column does.
    stat::TestBattery::Options opt;
    opt.include_slow = false;
    stat::TestBattery battery(opt);
    unsigned np_needed = 0;
    for (unsigned np = 7; np <= 12 && np_needed == 0; ++np) {
      if (battery.run(trng.generate(trng::common::Bits{bits * np}).xor_fold(np))
              .all_passed()) {
        np_needed = np;
      }
    }

    char label[32];
    std::snprintf(label, sizeof label, "%.0fC / %.2fV", op.temperature_c,
                  op.vdd_v);
    char np_str[12];
    if (np_needed > 0) {
      std::snprintf(np_str, sizeof np_str, "np=%u", np_needed);
    } else {
      std::snprintf(np_str, sizeof np_str, ">12");
    }
    std::printf("%-18s %-8.1f %-8.2f %-9.2f %-9.5f %-10.4f %s\n", label, d0,
                t_step, elaborated.stage_white_sigma_ps, miss_rate,
                common::binary_entropy(out.ones_fraction()), np_str);
  }
  bench::print_rule(80);
  std::printf(
      "expected shape: d0 and t_step scale together (the m = 36 margin\n"
      "holds -> zero missed edges everywhere); hotter dies jitter slightly\n"
      "more (sigma ~ sqrt(T)); the design passes with np within 1-2 of the\n"
      "Table-1 value across the whole envelope.\n");
  return 0;
}
