// Reproduces Table 1: "Evaluation of different design versions."
//
// Paper columns: k, tA, H_RAW (from the model), n_NIST (minimal XOR
// compression rate to pass all NIST tests, measured), H_NEW (model, after
// compression), throughput after compression.
//
// This bench regenerates every row by (a) evaluating the stochastic model
// exactly as the paper does and (b) driving the full simulated TRNG through
// the SP 800-22 battery to find n_NIST empirically. An extra column reports
// the empirically estimated raw entropy of the simulated hardware.
//
// Paper reference rows (Spartan-6, f_clk = 100 MHz):
//   k=1 tA=10ns:  H_RAW 0.99  n_NIST 7    H_NEW 0.999  14.3  Mb/s
//   k=1 tA=20ns:  H_RAW 0.999 n_NIST 7    H_NEW 0.999   7.14 Mb/s
//   k=4 tA=10ns:  H_RAW 0.03  n_NIST >16  H_NEW NA       NA
//   k=4 tA=50ns:  H_RAW 0.7   n_NIST 13   H_NEW 0.999   1.53 Mb/s
//   k=4 tA=100ns: H_RAW 0.94  n_NIST 10   H_NEW 0.999   1    Mb/s
//   k=4 tA=200ns: H_RAW 0.99  n_NIST 6    H_NEW 0.999   0.83 Mb/s
//
// Size knobs: TRNG_BENCH_BITS (battery sequence length per np candidate,
// default 60000), TRNG_BENCH_MAXNP (search cap, default 16).
#include <cinttypes>
#include <cstdio>
#include <optional>

#include "bench_util.hpp"
#include "core/trng.hpp"
#include "model/design_space.hpp"
#include "model/stochastic_model.hpp"
#include "stattests/battery.hpp"
#include "stattests/estimators.hpp"

namespace {

using namespace trng;

struct Row {
  int k;
  Cycles na;
  const char* paper_h_raw;
  const char* paper_n_nist;
  const char* paper_tp;
};

constexpr Row kRows[] = {
    {1, 1, "0.99", "7", "14.3"},   {1, 2, "0.999", "7", "7.14"},
    {4, 1, "0.03", ">16", "NA"},   {4, 5, "0.7", "13", "1.53"},
    {4, 10, "0.94", "10", "1"},    {4, 20, "0.99", "6", "0.83"},
};

}  // namespace

int main() {
  const std::size_t test_bits = bench::env_size("TRNG_BENCH_BITS", 60000);
  const auto max_np =
      static_cast<unsigned>(bench::env_size("TRNG_BENCH_MAXNP", 16));

  bench::print_header("Table 1: evaluation of different design versions");
  std::printf("battery length per np candidate: %zu bits (TRNG_BENCH_BITS)\n\n",
              test_bits);

  core::PlatformParams platform;  // the paper's measured values
  model::StochasticModel model(platform);
  model::DesignSpaceExplorer explorer(model);

  fpga::Fabric fabric(fpga::DeviceGeometry{}, /*die_seed=*/42);
  stat::TestBattery battery;

  std::printf(
      "%-3s %-7s | %-7s %-7s %-6s %-7s | %-7s %-7s %-6s %-7s %-9s\n", "k",
      "tA[ns]", "HRAWp", "nNISTp", "HNEWp", "TPp", "HRAWm", "nNIST", "HNEW",
      "TP[Mb/s]", "Hraw(sim)");
  bench::print_rule(96);

  for (const Row& row : kRows) {
    const double t_a = static_cast<double>(row.na) * 10000.0;
    const double h_raw_model = model.entropy_lower_bound(t_a, row.k);

    // Model-guided n_NIST search window: start slightly below the model's
    // own minimal np for H >= 0.997 (the paper's H_NEW = 0.999 target
    // with our sigma, see EXPERIMENTS.md).
    std::optional<unsigned> model_np;
    try {
      model_np = explorer.min_np(row.k, row.na, 0.997, max_np);
    } catch (const std::runtime_error&) {
      model_np = std::nullopt;  // hopeless row ("> max_np")
    }

    core::DesignParams params;
    params.k = row.k;
    params.accumulation_cycles = row.na;
    core::CarryChainTrng trng(fabric, params, 1000 + row.na);

    // Empirical raw-entropy estimate from a dedicated sample.
    const auto raw_sample = trng.generate(trng::common::Bits{std::min<std::size_t>(test_bits, 60000)});
    const double h_raw_sim =
        stat::shannon_entropy_estimate(raw_sample);

    std::optional<unsigned> n_nist;
    double h_new_model = 0.0;
    if (model_np.has_value()) {
      auto source = [&trng](std::size_t count) {
        return trng.generate(trng::common::Bits{count});
      };
      // Search around the model prediction (the paper's Step 2 -> Step 4
      // flow: the model narrows the design space, statistics confirm).
      const unsigned start = *model_np > 2 ? *model_np - 2 : 1;
      for (unsigned np = start; np <= max_np && !n_nist; ++np) {
        const auto raw = source(test_bits * np);
        if (battery.run(raw.xor_fold(np)).all_passed()) n_nist = np;
      }
      if (n_nist) {
        h_new_model =
            model.entropy_after_postprocessing(t_a, row.k, *n_nist);
      }
    }

    char n_nist_str[16];
    char h_new_str[16];
    char tp_str[16];
    if (n_nist.has_value()) {
      std::snprintf(n_nist_str, sizeof n_nist_str, "%u", *n_nist);
      std::snprintf(h_new_str, sizeof h_new_str, "%.4f", h_new_model);
      std::snprintf(tp_str, sizeof tp_str, "%.2f",
                    model.throughput_bps(row.na, *n_nist) / 1.0e6);
    } else {
      std::snprintf(n_nist_str, sizeof n_nist_str, ">%u", max_np);
      std::snprintf(h_new_str, sizeof h_new_str, "NA");
      std::snprintf(tp_str, sizeof tp_str, "NA");
    }

    std::printf(
        "%-3d %-7" PRIu64 " | %-7s %-7s %-6s %-7s | %-7.4f %-7s %-6s %-8s %-9.4f\n",
        row.k, row.na * 10, row.paper_h_raw, row.paper_n_nist, "0.999",
        row.paper_tp, h_raw_model, n_nist_str, h_new_str, tp_str, h_raw_sim);
  }

  bench::print_rule(96);
  std::printf(
      "columns: *p = paper-reported, *m = our model (sigma_LUT = 2 ps as\n"
      "measured; the paper's H_RAW values correspond to an effective sigma\n"
      "~2.8 ps — see EXPERIMENTS.md), nNIST/TP = measured on the simulated\n"
      "hardware, Hraw(sim) = plug-in entropy estimate of raw simulated bits.\n");
  return 0;
}
