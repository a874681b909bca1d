// Ablation of Section 4.5: XOR post-processing.
//
// Part 1 checks Eq. 7 (b_pp = 2^(np-1) b^np) in its validity domain: with
// white-only noise the raw bits are i.i.d. and the measured bias after
// XOR folding must track the piling-up prediction seeded by the measured
// raw bias.
//
// Part 2 repeats the experiment with the full noise taxonomy (flicker +
// supply drift): the raw bits are then serially correlated and XOR folding
// is much less effective than Eq. 7 promises — the reason the measured
// n_NIST of Table 1 exceeds what the worst-case-bias model alone would
// suggest.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "core/trng.hpp"
#include "model/stochastic_model.hpp"

namespace {

using namespace trng;

void fold_table(const common::BitStream& raw, unsigned max_np) {
  const double b_raw = std::fabs(raw.ones_fraction() - 0.5);
  std::printf("raw bias: %.4f\n", b_raw);
  std::printf("%-4s %-12s %-14s %-12s\n", "np", "bias (meas)", "Eq.7 predict",
              "throughput x");
  bench::print_rule(48);
  for (unsigned np = 1; np <= max_np; np += 2) {
    const auto folded = raw.xor_fold(np);
    const double b_meas = std::fabs(folded.ones_fraction() - 0.5);
    const double b_pred = model::StochasticModel::xor_bias(b_raw, np);
    std::printf("%-4u %-12.5f %-14.5f 1/%u\n", np, b_meas, b_pred, np);
  }
}

}  // namespace

int main() {
  const std::size_t out_bits = bench::env_size("TRNG_BENCH_BITS", 40000);
  bench::print_header("Section 4.5 ablation: XOR post-processing vs Eq. 7");

  fpga::Fabric fabric(fpga::DeviceGeometry{}, 42);
  core::DesignParams p;
  p.k = 4;
  p.accumulation_cycles = 5;  // tA = 50 ns: meaningful raw bias
  const unsigned max_np = 9;

  std::printf("[1] white-only noise (i.i.d. raw bits — Eq. 7's domain):\n");
  core::CarryChainTrng iid_trng(fabric, p, 31, sim::NoiseConfig::white_only());
  const auto iid_raw = iid_trng.generate(trng::common::Bits{out_bits * max_np});
  fold_table(iid_raw, max_np);
  std::printf("sampling floor ~%.5f on %zu bits\n\n",
              0.5 / std::sqrt(static_cast<double>(out_bits)), out_bits);

  std::printf("[2] full noise taxonomy (flicker + supply drift -> serially\n"
              "    correlated raw bits; Eq. 7 becomes optimistic):\n");
  core::CarryChainTrng drift_trng(fabric, p, 31, sim::NoiseConfig{});
  const auto drift_raw = drift_trng.generate(trng::common::Bits{out_bits * max_np});
  fold_table(drift_raw, max_np);

  std::printf(
      "\nexpected shape: in [1] the measured bias tracks Eq. 7 down to the\n"
      "sampling floor; in [2] correlated drift keeps the folded bias well\n"
      "above the prediction — the gap the paper's measured n_NIST absorbs.\n");
  return 0;
}
