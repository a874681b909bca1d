// Cross-cutting validation: the stochastic model against the simulated
// hardware — the scientific core of the reproduction. On the ideal fabric
// (the exact world of the model's Section 4.1 assumptions) predictions must
// hold quantitatively; on realistic fabric the folded lower bound must
// stay a lower bound.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/stats.hpp"
#include "core/elementary.hpp"
#include "core/postprocess.hpp"
#include "core/trng.hpp"
#include "model/nonlinearity.hpp"
#include "model/stochastic_model.hpp"

namespace trng {
namespace {

core::PlatformParams paper_platform() { return core::PlatformParams{}; }

double empirical_h(const common::BitStream& bits) {
  return common::binary_entropy(bits.ones_fraction());
}

/// One-bit empirical entropy from `n` raw bits of a TRNG built on `fabric`.
double run_trng_h(const fpga::Fabric& fabric, int k, Cycles na,
                  std::uint64_t seed, std::size_t n,
                  const sim::NoiseConfig& noise) {
  core::DesignParams p;
  p.k = k;
  p.accumulation_cycles = na;
  core::CarryChainTrng trng(fabric, p, seed, noise);
  return empirical_h(trng.generate(trng::common::Bits{n}));
}

class IdealFabricBound : public ::testing::TestWithParam<Cycles> {};

TEST_P(IdealFabricBound, EmpiricalEntropyRespectsFoldedBound) {
  // On the ideal fabric with white-only noise, the per-bit entropy of the
  // simulated TRNG must sit at or above the folded worst-case bound
  // (statistical slack only).
  const Cycles na = GetParam();
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 1, fpga::ideal_fabric_spec());
  model::StochasticModel m(paper_platform());
  const double h_emp = run_trng_h(fabric, 1, na, 7, 40000,
                                  sim::NoiseConfig::white_only());
  const double bound =
      m.folded_entropy_lower_bound(static_cast<double>(na) * 10000.0, 1);
  EXPECT_GE(h_emp, bound - 0.02) << "NA = " << na;
}

INSTANTIATE_TEST_SUITE_P(Sweep, IdealFabricBound,
                         ::testing::Values(Cycles{1}, Cycles{2}, Cycles{3},
                                           Cycles{5}, Cycles{8}));

TEST(IdealFabricBound, EmpiricalP1MatchesModelAtSomeTau) {
  // The measured P1 must be explained by the model at SOME tau — the tau
  // of this particular die/t_A combination (restart mode pins it).
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 1, fpga::ideal_fabric_spec());
  model::StochasticModel m(paper_platform());
  core::DesignParams p;
  core::CarryChainTrng trng(fabric, p, 3, sim::NoiseConfig::white_only());
  const double p1_emp = trng.generate(trng::common::Bits{60000}).ones_fraction();
  const double sigma = m.sigma_acc(10000.0);
  double best_err = 1.0;
  for (double tau = 0.0; tau < 480.0; tau += 0.25) {
    best_err = std::min(best_err,
                        std::fabs(m.p_one_folded(tau, sigma, 1) - p1_emp));
  }
  EXPECT_LT(best_err, 0.02);
}

TEST(IdealFabricBound, EntropyGrowsWithAccumulation) {
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 1, fpga::ideal_fabric_spec());
  // Compare a short and a long accumulation on the same die; use bias
  // (distance of P1 from 1/2) which is monotone even when H saturates.
  const auto noise = sim::NoiseConfig::white_only();
  core::DesignParams p_short;
  p_short.accumulation_cycles = 1;
  core::CarryChainTrng t_short(fabric, p_short, 5, noise);
  core::DesignParams p_long;
  p_long.accumulation_cycles = 16;
  core::CarryChainTrng t_long(fabric, p_long, 5, noise);
  const double b_short =
      std::fabs(t_short.generate(trng::common::Bits{30000}).ones_fraction() - 0.5);
  const double b_long =
      std::fabs(t_long.generate(trng::common::Bits{30000}).ones_fraction() - 0.5);
  EXPECT_LT(b_long, b_short + 0.01);
  EXPECT_LT(b_long, 0.03);  // 160 ns: sigma_acc ~ 36 ps >> bin
}

TEST(RealisticFabric, DnlAwareBoundHoldsAcrossDies) {
  // Realistic dies violate the equidistant-bin assumption (wide bins from
  // CARRY4 structure, process variation and clock skew), so the textbook
  // bound does NOT hold for every die. The DNL-aware bound — evaluated
  // with the die's widest effective bin — must.
  model::StochasticModel m(paper_platform());
  const fpga::FabricSpec spec;  // for the FF offset margin
  for (std::uint64_t die = 1; die <= 6; ++die) {
    fpga::Fabric fabric(fpga::DeviceGeometry{}, 3000 + die);
    const auto fp =
        fpga::TrngFloorplan::canonical(fabric.geometry(), 3, 36, 0, 17);
    const auto elaborated = fabric.elaborate(fp);
    const double bound = model::dnl_aware_entropy_bound(
        m, elaborated, 20000.0, 1,
        3.0 * spec.flip_flop.static_offset_sigma_ps);
    const double h = run_trng_h(fabric, 1, 2, die, 30000,
                                sim::NoiseConfig::white_only());
    EXPECT_GE(h, bound - 0.03) << "die " << die;
  }
}

TEST(RealisticFabric, SomeDiesFallBelowEquidistantBound) {
  // Documents the reproduction finding: the paper's equidistant-bin worst
  // case is NOT a valid lower bound on fabric with DNL — at least one die
  // in this sweep lands below it (see EXPERIMENTS.md).
  model::StochasticModel m(paper_platform());
  const double textbook = m.entropy_lower_bound(20000.0, 1);
  bool any_below = false;
  for (std::uint64_t die = 1; die <= 6 && !any_below; ++die) {
    fpga::Fabric fabric(fpga::DeviceGeometry{}, 3000 + die);
    const double h = run_trng_h(fabric, 1, 2, die, 30000,
                                sim::NoiseConfig::white_only());
    any_below = h < textbook - 0.05;
  }
  EXPECT_TRUE(any_below);
}

TEST(RealisticFabric, DefaultNoiseLiftsEntropyTowardTauAverage) {
  // With flicker + supply drift, tau wanders, so the long-run empirical
  // entropy generally exceeds the pinned-tau white-only value and always
  // exceeds the worst-case bound.
  model::StochasticModel m(paper_platform());
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 42);
  const double h_noisy = run_trng_h(fabric, 1, 1, 9, 60000,
                                    sim::NoiseConfig{});
  EXPECT_GE(h_noisy, m.folded_entropy_lower_bound(10000.0, 1) - 0.02);
  EXPECT_GT(h_noisy, 0.8);
}

TEST(RealisticFabric, XorPostProcessingReachesTableOneTarget) {
  // Paper Table 1, row (k=1, tA=10ns): with np = 7 the output entropy
  // reaches 0.999 — check the simulated pipeline gets close.
  fpga::Fabric fabric(fpga::DeviceGeometry{}, 42);
  core::DesignParams p;
  p.np = 7;
  core::XorCompressedSource trng(
      std::make_unique<core::CarryChainTrng>(fabric, p, 11), p.np);
  const auto bits = trng.generate(trng::common::Bits{40000});
  EXPECT_GT(empirical_h(bits), 0.9995);
}

TEST(ModelValidation, ElementaryTrngMatchesUnfoldedModelWithWideBins) {
  // The elementary TRNG is the model instance with t_step = d0 (Section
  // 5.3). Its empirical entropy must respect that model's bound too.
  core::PlatformParams pp = paper_platform();
  pp.t_step_ps = pp.d0_lut_ps;
  model::StochasticModel m(pp);
  // Choose t_A for sigma_acc ~ d0/2: H bound meaningful but < 1.
  // sigma = 2 sqrt(tA/480) = 240 -> tA = 240^2/4*480 = 6.912e6 ps.
  const Cycles na = 691;
  core::ElementaryTrng t(480.0, 2.0, na, 13);
  const double h_emp = empirical_h(t.generate(trng::common::Bits{30000}));
  // Wrap distance for the elementary sampler is 2*d0 (a full period maps
  // back to the same value), handled by the folded model with k=1.
  const double bound = m.folded_entropy_lower_bound(
      static_cast<double>(na) * 10000.0, 1, 2.0 * pp.d0_lut_ps);
  EXPECT_GE(h_emp, bound - 0.03);
}

}  // namespace
}  // namespace trng
