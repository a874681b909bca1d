// Statistical equivalence of the sparse-jitter TDC capture and the dense
// per-tap capture.
//
// TappedDelayLineSim::capture_into draws a flip-flop's dynamic jitter only
// when a toggle lies within half_aperture + kPolarGaussianBound * sigma_dyn
// of its nominal observation instant. Out of that reach no draw can change
// the captured value or make it metastable, so the skip is exact in
// distribution. It does change which generator values each tap consumes,
// so the two captures agree in law, not bit for bit.
//
// The oracle below is the dense capture: every flip-flop draws a Gaussian,
// and the value_at / edges_in oracles (oracles.hpp) resolve the level and
// the aperture. Both captures read the same oscillator trajectory (capturing
// does not touch the oscillator) and the same die, static offsets
// included, so every difference between them comes from the flip-flop
// layer. Every check compares two counts over N trials with a kZ = 5
// standard-error bound: the binomial bound for proportions, the Poisson
// bound for event counts that can exceed one per trial. Each comparison
// has a false-alarm rate under 1e-6 for independent samples; reading a
// shared trajectory only correlates the two sides, which narrows their
// true spread.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/config.hpp"
#include "core/extractor.hpp"
#include "fpga/fabric.hpp"
#include "fpga/placement.hpp"
#include "model/stochastic_model.hpp"
#include "oracles.hpp"
#include "sim/delay_line.hpp"
#include "sim/sampler.hpp"

namespace trng::sim {
namespace {

constexpr double kZ = 5.0;

/// The dense capture: the per-tap body capture_into replaced.
class DenseCapture {
 public:
  DenseCapture(const fpga::FlipFlopTimingSpec& ff, std::uint64_t seed)
      : ff_(ff), rng_(seed) {}

  /// Captures `line`'s flip-flops (its timing and static offsets, drawn
  /// from this object's own generator) into `out_words`, capture_into's
  /// packed layout.
  void capture(const TappedDelayLineSim& line, const RingOscillator& source,
               int stage, Picoseconds t_clk, std::uint64_t* out_words) {
    const int m = line.taps();
    std::fill_n(out_words, (m + 63) / 64, std::uint64_t{0});
    const Picoseconds half_aperture = ff_.aperture_ps / 2.0;
    for (int j = 0; j < m; ++j) {
      const Picoseconds s = line.observation_time(j, t_clk) +
                            line.static_offset(j) +
                            ff_.dynamic_jitter_sigma_ps * rng_.next_gaussian();
      bool v = test::value_at(source, stage, s);
      const auto edges = test::edges_in(source, stage, s - half_aperture,
                                        s + half_aperture);
      if (!edges.empty()) {
        Picoseconds nearest = half_aperture;
        for (Picoseconds e : edges) nearest = std::min(nearest, std::fabs(e - s));
        if (rng_.next_double() < std::exp(-nearest / ff_.resolution_tau_ps)) {
          v = rng_.next_double() < 0.5;
          ++metastable_events_;
        }
      }
      out_words[j >> 6] |= static_cast<std::uint64_t>(v) << (j & 63);
    }
  }

  std::uint64_t metastable_events() const { return metastable_events_; }

 private:
  fpga::FlipFlopTimingSpec ff_;
  common::Xoshiro256StarStar rng_;
  std::uint64_t metastable_events_ = 0;
};

/// Two proportions a/n and b/n agree within kZ binomial standard errors
/// (pooled rate; the variance floor of 1/n keeps a 0-vs-0 or n-vs-n
/// comparison meaningful).
::testing::AssertionResult same_rate(std::uint64_t a, std::uint64_t b,
                                     std::uint64_t n) {
  const double nd = static_cast<double>(n);
  const double p = static_cast<double>(a + b) / (2.0 * nd);
  const double se = std::sqrt(std::max(p * (1.0 - p), 1.0 / nd) * 2.0 / nd);
  const double diff = std::fabs(static_cast<double>(a) - static_cast<double>(b)) / nd;
  if (diff <= kZ * se) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " vs " << b << " of " << n << ": |diff| " << diff << " > "
         << kZ << " * " << se;
}

/// Two event counts agree within kZ Poisson standard errors.
::testing::AssertionResult same_count(std::uint64_t a, std::uint64_t b) {
  const double diff = std::fabs(static_cast<double>(a) - static_cast<double>(b));
  const double se = std::sqrt(static_cast<double>(a + b) + 1.0);
  if (diff <= kZ * se) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " vs " << b << ": |diff| " << diff << " > " << kZ << " * "
         << se;
}

/// m taps of exactly `bin` ps, zero skew.
fpga::ElaboratedDelayLine uniform_line(int m, Picoseconds bin) {
  fpga::ElaboratedDelayLine line;
  for (int j = 0; j < m; ++j) {
    line.tap_delay.push_back(bin);
    line.cumulative_delay.push_back(bin * (j + 1));
    line.ff_clock_skew.push_back(0.0);
  }
  return line;
}

TEST(CaptureEquivalence, PerTapProbabilityNearAnEdge) {
  // 4 ps bins put several flip-flops within reach (5 + 12.01 * 0.8 ps) of
  // a toggle, so some taps draw and others skip in the same capture. A
  // noiseless oscillator pins the toggle, and each fixed phase of t_clk
  // against it is compared tap by tap: sweeping the phase would average
  // the jitter's effect on P(1) away.
  const fpga::FlipFlopTimingSpec ff;  // aperture 10, tau 2.5, jitter 0.8 ps
  RingOscillator osc({480.0, 480.0, 480.0}, 0.0, NoiseConfig::white_only(),
                     nullptr, 1, 6000.0);
  osc.reset(0.0);
  osc.advance_to(6000.0);  // stage 0 toggles at 480 + 1440 i
  constexpr Picoseconds kToggle = 1920.0;
  constexpr int kTaps = 36;
  TappedDelayLineSim sparse(uniform_line(kTaps, 4.0), ff, 21);
  DenseCapture dense(ff, 22);

  // t_clk values: the toggle near tap 17's nominal instant at five
  // phases, then 3 ps past either end of the span of nominal instants
  // (observation time plus static offset), where only the end taps can
  // see it.
  std::vector<Picoseconds> clocks;
  for (const Picoseconds phase : {0.0, 0.7, 1.3, 2.1, 2.9}) {
    clocks.push_back(kToggle + 4.0 * 18.0 + phase);
  }
  Picoseconds offset_lo = sparse.observation_time(0, 0.0) +
                          sparse.static_offset(0);
  Picoseconds offset_hi = offset_lo;
  for (int j = 1; j < kTaps; ++j) {
    const Picoseconds offset = sparse.observation_time(j, 0.0) +
                               sparse.static_offset(j);
    offset_lo = std::min(offset_lo, offset);
    offset_hi = std::max(offset_hi, offset);
  }
  clocks.push_back(kToggle - 3.0 - offset_hi);
  clocks.push_back(kToggle + 3.0 - offset_lo);

  constexpr std::uint64_t kN = 8000;
  int uncertain_taps = 0;
  for (const Picoseconds t_clk : clocks) {
    SCOPED_TRACE(t_clk);
    const int uncertain_before = uncertain_taps;
    std::array<std::uint64_t, kTaps> ones_sparse{}, ones_dense{};
    for (std::uint64_t i = 0; i < kN; ++i) {
      std::uint64_t a = 0, b = 0;
      sparse.capture_into(osc, 0, t_clk, &a);
      dense.capture(sparse, osc, 0, t_clk, &b);
      for (int j = 0; j < kTaps; ++j) {
        ones_sparse[j] += (a >> j) & 1ULL;
        ones_dense[j] += (b >> j) & 1ULL;
      }
    }
    for (int j = 0; j < kTaps; ++j) {
      EXPECT_TRUE(same_rate(ones_sparse[j], ones_dense[j], kN)) << "tap " << j;
      const double p = static_cast<double>(ones_dense[j]) / kN;
      if (p > 0.02 && p < 0.98) ++uncertain_taps;
    }
    // Every placement reached a tap whose value the flip-flop layer decides.
    EXPECT_GT(uncertain_taps, uncertain_before);
  }
  EXPECT_GE(uncertain_taps, 8);
  EXPECT_TRUE(same_count(sparse.metastable_events(), dense.metastable_events()));
  EXPECT_GT(dense.metastable_events(), kN);
}

/// Per-conversion outcomes of one capture path.
struct Tally {
  std::array<std::uint64_t, 4> classes{};  ///< indexed by SnapshotClass
  std::uint64_t missed_edges = 0;
  std::uint64_t ones = 0;

  void add(const PackedCapture& capture, const core::EntropyExtractor& ex) {
    ++classes[static_cast<std::size_t>(classify_packed(capture))];
    const core::ExtractionResult r = ex.extract_packed(capture);
    if (!r.edge_found) {
      ++missed_edges;
    } else if (r.bit) {
      ++ones;
    }
  }
};

/// Runs `n` conversions of one SampleController and captures each twice:
/// with the controller's own sparse capture, and with the dense oracle on
/// the same trajectory and the same die.
struct PairedRun {
  Tally sparse, dense;
  std::uint64_t sparse_metastable = 0, dense_metastable = 0;

  PairedRun(const fpga::Fabric& fabric, const core::DesignParams& p,
            std::uint64_t seed, const NoiseConfig& noise, std::uint64_t n) {
    const auto plan =
        fpga::TrngFloorplan::canonical(fabric.geometry(), p.n, p.m, 0, 17);
    const auto elaborated = fabric.elaborate(plan, p.k);
    const auto& ff = fabric.spec().flip_flop;
    SampleController controller(elaborated, ff, noise, seed, p.mode);
    // SampleController's line seeding: line i on (seed ^ 0x11E5) + i, so
    // these copies carry the controller's static offsets.
    std::vector<TappedDelayLineSim> lines;
    std::uint64_t line_seed = seed ^ 0x11E5ULL;
    for (const auto& timing : elaborated.lines) {
      lines.emplace_back(timing, ff, line_seed++);
    }
    DenseCapture oracle(ff, seed + 1);
    const core::EntropyExtractor extractor(p.m, p.k);
    PackedCapture a, b;
    for (std::uint64_t i = 0; i < n; ++i) {
      controller.next_capture_into(p.accumulation_cycles, a);
      b = a;
      for (int l = 0; l < b.lines; ++l) {
        oracle.capture(lines[static_cast<std::size_t>(l)],
                       controller.oscillator(), l, a.sample_time_ps, b.line(l));
      }
      sparse.add(a, extractor);
      dense.add(b, extractor);
    }
    sparse_metastable = controller.metastable_events();
    dense_metastable = oracle.metastable_events();
  }
};

TEST(CaptureEquivalence, Figure4ClassRatesAndMetastability) {
  // Free-running sampling sweeps every edge phase, so all Figure 4
  // classes occur (the bench's shares: ~76% regular, ~24% double edge,
  // ~0.05% bubbles).
  const fpga::Fabric fabric(fpga::DeviceGeometry{}, 42);
  core::DesignParams p;
  p.mode = SamplingMode::kFreeRunning;
  constexpr std::uint64_t kN = 20000;
  const PairedRun run(fabric, p, 7, NoiseConfig{}, kN);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_TRUE(same_rate(run.sparse.classes[c], run.dense.classes[c], kN))
        << "class " << c;
  }
  EXPECT_GT(run.dense.classes[static_cast<std::size_t>(SnapshotClass::kDoubleEdge)],
            kN / 10);
  EXPECT_TRUE(same_count(run.sparse_metastable, run.dense_metastable));
  EXPECT_GT(run.dense_metastable, kN / 20);
  EXPECT_TRUE(same_rate(run.sparse.ones, run.dense.ones, kN));
}

class MissedEdges : public ::testing::TestWithParam<int> {};

TEST_P(MissedEdges, RateMatchesOnASlowDie) {
  // A 10% slow die (bench/ablation_m_sweep's slowest corner): its d0 nears
  // the end of a short line, so the edge sometimes escapes.
  fpga::FabricSpec spec;
  spec.lut.nominal_delay_ps *= 1.10;
  const fpga::Fabric fabric(fpga::DeviceGeometry{}, 9005, spec);
  core::DesignParams p;
  p.m = GetParam();
  p.mode = SamplingMode::kFreeRunning;
  constexpr std::uint64_t kN = 12000;
  const PairedRun run(fabric, p, 105, NoiseConfig{}, kN);
  EXPECT_TRUE(same_rate(run.sparse.missed_edges, run.dense.missed_edges, kN));
  EXPECT_TRUE(same_rate(run.sparse.ones, run.dense.ones, kN));
}

INSTANTIATE_TEST_SUITE_P(TapCounts, MissedEdges, ::testing::Values(28, 32, 36));

TEST(CaptureEquivalence, RawBiasMatchesTheStochasticModel) {
  // Equidistant bins with realistic flip-flops and white-only noise: the
  // world of the paper's model, plus the flip-flop layer under test. Both
  // captures' raw P1 must agree, and each must respect the model's folded
  // entropy lower bound at t_A = 10 ns.
  fpga::FabricSpec spec = fpga::ideal_fabric_spec();
  spec.flip_flop = fpga::FlipFlopTimingSpec{};
  const fpga::Fabric fabric(fpga::DeviceGeometry{}, 1, spec);
  const core::DesignParams p;  // restart mode, N_A = 1
  constexpr std::uint64_t kN = 40000;
  const PairedRun run(fabric, p, 3, NoiseConfig::white_only(), kN);
  EXPECT_TRUE(same_rate(run.sparse.ones, run.dense.ones, kN));

  const model::StochasticModel model{core::PlatformParams{}};
  const double bound = model.folded_entropy_lower_bound(10000.0, 1);
  for (const std::uint64_t ones : {run.sparse.ones, run.dense.ones}) {
    const double p1 = static_cast<double>(ones) / kN;
    EXPECT_GE(common::binary_entropy(p1), bound - 0.02) << "P1 " << p1;
  }
}

}  // namespace
}  // namespace trng::sim
