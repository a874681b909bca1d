// The elementary TRNG's Bernoulli(P1) kernel in law: its P1 against the
// paper's Eq. 3 as the stochastic model evaluates it, its ones fraction
// against P1, its stream against the Gaussian-per-bit reference it
// replaced (tests/oracles.hpp), and its independence from bit to bit.
// Every check is a sampling test at a fixed seed with a 4-sigma (or
// p < 1e-4) bound, so a correct kernel fails one only by a ~1e-4 fluke.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/bitstream.hpp"
#include "common/special.hpp"
#include "core/config.hpp"
#include "core/elementary.hpp"
#include "model/stochastic_model.hpp"
#include "oracles.hpp"

namespace trng::core {
namespace {

constexpr Picoseconds kD0 = 480.0;
constexpr Picoseconds kSigma = 2.0;

// Four operating points: t_A = 10 ns (nearly deterministic),
// 6.9 us (sigma_acc ~ d0/2), 8 us (the registry's) and 250 us (~fair).
constexpr std::array<Cycles, 4> kCycles = {1, 691, 800, 25000};

std::vector<bool> bits_of(BitSource& source, std::size_t n) {
  const common::BitStream s = source.generate(common::Bits{n});
  std::vector<bool> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = s[i];
  return out;
}

TEST(ElementaryLaw, P1MatchesStochasticModel) {
  // On a platform whose t_step is d0, Eq. 3's '1' bins centred on even
  // multiples of d0 are the sampler's even toggle bins shifted by d0/2.
  // The sampler also clamps phases below 0 to the reset level, a mass far
  // below 1e-12 at every t_A here.
  PlatformParams pp;
  pp.d0_lut_ps = kD0;
  pp.t_step_ps = kD0;
  pp.sigma_lut_ps = kSigma;
  const model::StochasticModel model(pp);
  for (const Cycles cycles : {Cycles{1}, Cycles{100}, Cycles{691}, Cycles{800},
                              Cycles{2000}, Cycles{25000}, Cycles{100000}}) {
    SCOPED_TRACE(cycles);
    const ElementaryTrng trng(kD0, kSigma, cycles, 1);
    const double t_a = trng.accumulation_time_ps();
    EXPECT_NEAR(trng.p_one(),
                model.p_one(t_a - kD0 / 2.0, model.sigma_acc(t_a)), 1e-12);
  }
}

TEST(ElementaryLaw, OnesFractionMatchesP1) {
  constexpr std::size_t kBits = std::size_t{1} << 22;
  for (const Cycles cycles : kCycles) {
    SCOPED_TRACE(cycles);
    ElementaryTrng trng(kD0, kSigma, cycles, 100 + cycles);
    const double p1 = trng.p_one();
    const double ones = trng.generate(common::Bits{kBits}).ones_fraction();
    EXPECT_LE(std::fabs(ones - p1),
              4.0 * std::sqrt(p1 * (1.0 - p1) / static_cast<double>(kBits)))
        << "P1 = " << p1 << ", ones fraction = " << ones;
  }
}

TEST(ElementaryLaw, P1CountsTheClampBelowPhaseZero) {
  // A slow ring with sigma_acc = t_A = 10 ns (d0 = 2 ns, mean phase 5,
  // phase sigma 5): about 16% of conversions see a phase below 0 and read
  // the reset level 1, and Eq. 3's odd bins below 0 carry a few percent
  // more. P1 must count the clamp, as the Gaussian reference samples it.
  constexpr Picoseconds kSlowD0 = 2000.0;
  const Picoseconds sigma = 10000.0 / std::sqrt(5.0);
  ElementaryTrng trng(kSlowD0, sigma, 1, 3);
  ASSERT_NEAR(trng.accumulated_sigma_ps(), trng.accumulation_time_ps(), 1e-6);
  PlatformParams pp;
  pp.d0_lut_ps = kSlowD0;
  pp.t_step_ps = kSlowD0;
  pp.sigma_lut_ps = sigma;
  const model::StochasticModel model(pp);
  const double unclamped =
      model.p_one(trng.accumulation_time_ps() - kSlowD0 / 2.0,
                  trng.accumulated_sigma_ps());
  EXPECT_GT(std::fabs(trng.p_one() - unclamped), 0.05);
  constexpr std::size_t kBits = std::size_t{1} << 20;
  test::ElementaryReference gaussian(
      kSlowD0, sigma, 1, 4, test::ElementaryReference::Mode::kGaussian);
  const double p1 = trng.p_one();
  const double bound =
      4.0 * std::sqrt(p1 * (1.0 - p1) / static_cast<double>(kBits));
  const auto ones = [](BitSource& source) {
    return source.generate(common::Bits{kBits}).ones_fraction();
  };
  EXPECT_LE(std::fabs(ones(gaussian) - p1), bound);
  EXPECT_LE(std::fabs(ones(trng) - p1), bound);
}

TEST(ElementaryLaw, MatchesGaussianReferenceInLaw) {
  // Two-sample chi-square homogeneity test on the counts of the eight
  // non-overlapping 3-bit patterns (7 degrees of freedom): it sees the
  // ones fraction and any short-range dependence the two kernels might
  // not share. The fully random operating points only; at t_A = 10 ns
  // both streams are all ones.
  constexpr std::size_t kBits = std::size_t{3} << 17;
  for (const Cycles cycles : {Cycles{691}, Cycles{800}, Cycles{25000}}) {
    SCOPED_TRACE(cycles);
    ElementaryTrng bernoulli(kD0, kSigma, cycles, 7);
    test::ElementaryReference gaussian(
        kD0, kSigma, cycles, 8, test::ElementaryReference::Mode::kGaussian);
    std::array<std::array<double, 8>, 2> counts{};
    const std::vector<bool> a = bits_of(bernoulli, kBits);
    const std::vector<bool> b = bits_of(gaussian, kBits);
    for (std::size_t i = 0; i + 3 <= kBits; i += 3) {
      counts[0][(a[i] ? 4 : 0) + (a[i + 1] ? 2 : 0) + (a[i + 2] ? 1 : 0)] += 1;
      counts[1][(b[i] ? 4 : 0) + (b[i + 1] ? 2 : 0) + (b[i + 2] ? 1 : 0)] += 1;
    }
    double chi2 = 0.0;
    int cells = 0;
    for (std::size_t c = 0; c < 8; ++c) {
      const double total = counts[0][c] + counts[1][c];
      if (total == 0.0) continue;
      ++cells;
      // Equal sample sizes: each sample expects half the cell's total.
      for (const auto& row : counts) {
        const double diff = row[c] - total / 2.0;
        chi2 += diff * diff / (total / 2.0);
      }
    }
    ASSERT_GE(cells, 2);
    const double p = common::igamc((cells - 1) / 2.0, chi2 / 2.0);
    EXPECT_GT(p, 1e-4) << "chi2 = " << chi2 << " over " << cells << " cells";
  }
}

TEST(ElementaryLaw, LagCorrelationVanishes) {
  // Conversions are independent, so the sample correlation of x_i and
  // x_{i+lag} is N(0, 1/n) up to O(1/n), at lag 1 (neighbours, across word
  // boundaries too) and at lag 64 (the same lane of consecutive words).
  constexpr std::size_t kBits = std::size_t{1} << 22;
  for (const Cycles cycles : {Cycles{691}, Cycles{800}, Cycles{25000}}) {
    SCOPED_TRACE(cycles);
    ElementaryTrng trng(kD0, kSigma, cycles, 11);
    const common::BitStream x = trng.generate(common::Bits{kBits});
    for (const std::size_t lag : {std::size_t{1}, std::size_t{64}}) {
      SCOPED_TRACE(lag);
      const std::size_t pairs = kBits - lag;
      double ones_a = 0.0, ones_b = 0.0, ones_ab = 0.0;
      for (std::size_t i = 0; i < pairs; i += 64) {
        const std::size_t valid = std::min<std::size_t>(64, pairs - i);
        const std::uint64_t mask =
            valid == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << valid) - 1;
        const std::uint64_t a = x.word_at(i) & mask;
        const std::uint64_t b = x.word_at(i + lag) & mask;
        ones_a += std::popcount(a);
        ones_b += std::popcount(b);
        ones_ab += std::popcount(a & b);
      }
      const double n = static_cast<double>(pairs);
      const double ma = ones_a / n, mb = ones_b / n;
      const double cov = ones_ab / n - ma * mb;
      const double r = cov / std::sqrt(ma * (1.0 - ma) * mb * (1.0 - mb));
      EXPECT_LE(std::fabs(r), 4.0 / std::sqrt(n)) << "r = " << r;
    }
  }
}

}  // namespace
}  // namespace trng::core
