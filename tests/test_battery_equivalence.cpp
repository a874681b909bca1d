// The battery's correctness contract: for any input, every wordpar::
// kernel returns a TestResult bit-identical to the bit-serial oracle in
// sp800_22_oracle.hpp — same p-value doubles, same applicable flag, same
// note — and the threaded engine returns the same report as the sequential
// one. This suite checks the contract over every source in
// core/source_registry plus degenerate and non-default-parameter inputs,
// and checks the FFT behind the DFT test against a naive O(n^2) transform
// and, at full test lengths, the radix-2 oracle in fft_oracle.hpp;
// lint rule TL008 keeps it in sync with the kernel list.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/source_registry.hpp"
#include "fpga/fabric.hpp"
#include "fft_oracle.hpp"
#include "sp800_22_oracle.hpp"
#include "stattests/battery.hpp"
#include "stattests/sp800_22_detail.hpp"
#include "stattests/sp800_22_wordpar.hpp"

namespace trng::stat {
namespace {

common::BitStream random_bits(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256StarStar rng(seed);
  common::BitStream b;
  b.reserve(n + 64);
  for (std::size_t w = 0; w < n / 64 + 1; ++w) b.append_bits(rng.next(), 64);
  return b.slice(0, n);
}

// Exact equality across the board: doubles compared with ==, not a
// tolerance. The wordpar kernels only change how integer counts are
// produced, so any FP difference is a bug.
void expect_identical(const TestResult& ref, const TestResult& got) {
  EXPECT_EQ(ref.name, got.name);
  EXPECT_EQ(ref.applicable, got.applicable);
  EXPECT_EQ(ref.note, got.note);
  ASSERT_EQ(ref.p_values.size(), got.p_values.size());
  for (std::size_t j = 0; j < ref.p_values.size(); ++j) {
    EXPECT_EQ(ref.p_values[j], got.p_values[j]) << "p_values[" << j << "]";
  }
}

void expect_identical(const BatteryReport& ref, const BatteryReport& got) {
  ASSERT_EQ(ref.results.size(), got.results.size());
  for (std::size_t i = 0; i < ref.results.size(); ++i) {
    SCOPED_TRACE(ref.results[i].name);
    expect_identical(ref.results[i], got.results[i]);
  }
}

/// The oracle battery: every test in TestBattery::run's fixed order. The
/// DFT slot runs the production FFT, the DFT's only implementation;
/// DftMatchesNaiveTransform below checks that against a naive transform.
BatteryReport oracle_battery(const common::BitStream& bits) {
  BatteryReport report;
  report.results = {
      oracle::frequency_test(bits),
      oracle::block_frequency_test(bits),
      oracle::runs_test(bits),
      oracle::longest_run_test(bits),
      oracle::cumulative_sums_test(bits),
      oracle::serial_test(bits),
      oracle::approximate_entropy_test(bits),
      oracle::random_excursions_test(bits),
      oracle::random_excursions_variant_test(bits),
      oracle::rank_test(bits),
      wordpar::dft_test(bits),
      oracle::non_overlapping_template_test(bits),
      oracle::overlapping_template_test(bits),
      oracle::universal_test(bits),
      oracle::linear_complexity_test(bits),
  };
  return report;
}

BatteryReport run_engine(const common::BitStream& bits,
                         TestBattery::Engine engine, unsigned threads = 0) {
  TestBattery::Options opt;
  opt.engine = engine;
  opt.threads = threads;
  return TestBattery(opt).run(bits);
}

void expect_engines_agree(const common::BitStream& bits) {
  const auto ref = oracle_battery(bits);
  expect_identical(ref, run_engine(bits, TestBattery::Engine::kWordParallel));
  expect_identical(ref, run_engine(bits, TestBattery::Engine::kThreaded, 4));
}

TEST(BatteryEquivalence, EveryRegistrySource) {
  // 128 Kibit per source: every test applicable except universal (needs
  // 387840 bits — covered by LongStreamCoversUniversal below).
  const fpga::Fabric fabric(fpga::DeviceGeometry{}, 42);
  for (const auto& factory : core::canonical_sources(fabric)) {
    SCOPED_TRACE(factory.id);
    auto source = factory.make(7);
    expect_engines_agree(source->generate(trng::common::Bits{131072}));
  }
}

TEST(BatteryEquivalence, LongStreamCoversUniversal) {
  const auto bits = random_bits(450000, 20260806);
  const auto ref = oracle_battery(bits);
  bool universal_applicable = false;
  for (const auto& r : ref.results) {
    if (r.name == "universal") universal_applicable = r.applicable;
  }
  EXPECT_TRUE(universal_applicable);
  expect_identical(oracle::universal_test(bits), wordpar::universal_test(bits));
  expect_identical(ref, run_engine(bits, TestBattery::Engine::kWordParallel));
  expect_identical(ref, run_engine(bits, TestBattery::Engine::kThreaded, 4));
}

TEST(BatteryEquivalence, DegenerateStreams) {
  // Empty, sub-word, word-boundary and all-ones inputs: the kernels'
  // head/tail masking and the gates' inapplicable notes must match the
  // oracle exactly.
  expect_engines_agree(common::BitStream{});
  for (const std::size_t n : {1u, 63u, 64u, 65u, 100u, 1000u, 4096u}) {
    SCOPED_TRACE(n);
    expect_engines_agree(random_bits(n, n));
  }
  common::BitStream ones;
  for (int i = 0; i < 4096; ++i) ones.push_back(true);
  expect_engines_agree(ones);
}

TEST(BatteryEquivalence, NonDefaultParameters) {
  // The battery always runs the defaults; exercise each parameterized
  // kernel's off-default paths directly.
  const auto bits = random_bits(131072, 99);
  expect_identical(oracle::block_frequency_test(bits, 4096),
                   wordpar::block_frequency_test(bits, 4096));
  expect_identical(oracle::serial_test(bits, 5), wordpar::serial_test(bits, 5));
  expect_identical(oracle::serial_test(bits, 2), wordpar::serial_test(bits, 2));
  expect_identical(oracle::approximate_entropy_test(bits, 7),
                   wordpar::approximate_entropy_test(bits, 7));
  expect_identical(oracle::linear_complexity_test(bits, 1000),
                   wordpar::linear_complexity_test(bits, 1000));
  expect_identical(oracle::non_overlapping_template_test(bits, 8),
                   wordpar::non_overlapping_template_test(bits, 8));
  expect_identical(oracle::overlapping_template_test(bits, 9),
                   wordpar::overlapping_template_test(bits, 9));
}

TEST(BatteryEquivalence, SpecExampleGating) {
  const auto bits = random_bits(100, 5);
  const auto spec = Gating::kSpecExample;
  expect_identical(oracle::frequency_test(bits, spec),
                   wordpar::frequency_test(bits, spec));
  expect_identical(oracle::block_frequency_test(bits, 10, spec),
                   wordpar::block_frequency_test(bits, 10, spec));
  expect_identical(oracle::runs_test(bits, spec),
                   wordpar::runs_test(bits, spec));
  expect_identical(oracle::cumulative_sums_test(bits, spec),
                   wordpar::cumulative_sums_test(bits, spec));
  expect_identical(oracle::serial_test(bits, 3, spec),
                   wordpar::serial_test(bits, 3, spec));
  expect_identical(oracle::approximate_entropy_test(bits, 3, spec),
                   wordpar::approximate_entropy_test(bits, 3, spec));
}

TEST(BatteryEquivalence, SerialAndApproximateEntropyHistograms) {
  // Serial and approximate entropy count only their longest cyclic window
  // histogram and sum it down to the shorter ones. Serial at m = 2 derives
  // the empty m - 2 = 0 histogram; the default m = 16 needs n > 2^18 under
  // strict gating, so that stream is longer than the battery's 128 Kibit.
  const auto bits = random_bits((std::size_t{1} << 19) + 37, 17);
  for (const unsigned m : {2u, 3u, 16u}) {
    SCOPED_TRACE(m);
    expect_identical(oracle::serial_test(bits, m),
                     wordpar::serial_test(bits, m));
  }
  for (const unsigned m : {1u, 10u}) {
    SCOPED_TRACE(m);
    expect_identical(oracle::approximate_entropy_test(bits, m),
                     wordpar::approximate_entropy_test(bits, m));
  }
  // Short streams under the spec-example gating: at n < m the gate
  // answers; at n = m (serial) or m + 1 (approximate entropy) nearly every
  // window wraps, and a few more bits put the wrap across a word boundary.
  const auto spec = Gating::kSpecExample;
  for (const unsigned m : {2u, 3u, 5u, 16u}) {
    for (const std::size_t n : {std::size_t{m} - 1, std::size_t{m},
                                std::size_t{m} + 1, std::size_t{m} + 63}) {
      SCOPED_TRACE(testing::Message() << "serial m = " << m << ", n = " << n);
      const auto shorter = random_bits(n, 1000 + n);
      expect_identical(oracle::serial_test(shorter, m, spec),
                       wordpar::serial_test(shorter, m, spec));
    }
  }
  for (const unsigned m : {1u, 2u, 5u, 10u}) {
    for (const std::size_t n : {std::size_t{m}, std::size_t{m} + 1,
                                std::size_t{m} + 2, std::size_t{m} + 64}) {
      SCOPED_TRACE(testing::Message() << "ApEn m = " << m << ", n = " << n);
      const auto shorter = random_bits(n, 2000 + n);
      expect_identical(oracle::approximate_entropy_test(shorter, m, spec),
                       wordpar::approximate_entropy_test(shorter, m, spec));
    }
  }
}

TEST(BatteryEquivalence, UniversalStatisticExplicitParameters) {
  // The Section 2.9.4 entry point shares the production distance sum; check
  // fn, K and the p-value against the MSB-first oracle for every L it
  // accepts (the worked example's L = 2, Q = 4 is in test_sp800_22_kat).
  const auto bits = random_bits(200000, 29);
  for (unsigned big_l = 1; big_l <= 16; ++big_l) {
    SCOPED_TRACE(big_l);
    const auto ref = oracle::universal_statistic(bits, big_l, 1000, 5.2, 2.9);
    const auto got = wordpar::universal_statistic(bits, big_l, 1000, 5.2, 2.9);
    EXPECT_EQ(ref.k, got.k);
    EXPECT_EQ(ref.fn, got.fn);
    EXPECT_EQ(ref.p_value, got.p_value);
  }
  const auto short_bits = random_bits(20, 29);
  EXPECT_THROW((void)wordpar::universal_statistic(short_bits, 0, 4, 1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)wordpar::universal_statistic(short_bits, 17, 4, 1.0, 1.0),
               std::invalid_argument);
  // 20 bits hold 10 blocks of L = 2: Q = 10 leaves no test block.
  EXPECT_THROW((void)wordpar::universal_statistic(short_bits, 2, 10, 1.0, 1.0),
               std::invalid_argument);
}

TEST(BatteryEquivalence, LinearComplexityLaneGroups) {
  // Berlekamp–Massey runs 64 blocks per word: block counts around the lane
  // groups (the last group partial), then block lengths around word
  // boundaries up to the gate's M = 5000, each at the 200-block minimum.
  for (const std::size_t blocks : {200u, 255u, 256u, 257u, 2097u}) {
    SCOPED_TRACE(blocks);
    const auto bits = random_bits(blocks * 500 + 37, 40 + blocks);
    expect_identical(oracle::linear_complexity_test(bits),
                     wordpar::linear_complexity_test(bits));
  }
  for (const std::size_t m : {500u, 501u, 1000u, 4999u, 5000u}) {
    SCOPED_TRACE(m);
    const auto bits = random_bits(200 * m + 11, 50 + m);
    expect_identical(oracle::linear_complexity_test(bits, m),
                     wordpar::linear_complexity_test(bits, m));
  }
  // One lane group mixing all-zero blocks (L = 0), blocks whose only one
  // is the last bit (L = M) and random blocks.
  constexpr std::size_t kLen = 500;
  const auto noise = random_bits(256 * kLen, 61);
  common::BitStream mixed;
  for (std::size_t b = 0; b < 256; ++b) {
    for (std::size_t i = 0; i < kLen; ++i) {
      const std::size_t kind = b % 3;
      mixed.push_back(kind == 0   ? false
                      : kind == 1 ? i == kLen - 1
                                  : noise[b * kLen + i]);
    }
  }
  expect_identical(oracle::linear_complexity_test(mixed),
                   wordpar::linear_complexity_test(mixed));
}

TEST(BatteryEquivalence, NonOverlappingTemplateEveryLength) {
  // Every template length the battery's gate admits on 200 kbit (m = 2..10),
  // on random bits and on a periodic stream dense in overlapping windows:
  // 0^8 1 repeated, with an extra 0 every 50 periods to move the phase.
  const auto bits = random_bits(200000, 71);
  common::BitStream periodic;
  for (std::size_t period = 0; periodic.size() < 200000; ++period) {
    if (period % 50 == 49) periodic.push_back(false);
    for (int i = 0; i < 8; ++i) periodic.push_back(false);
    periodic.push_back(true);
  }
  for (unsigned m = 2; m <= 10; ++m) {
    SCOPED_TRACE(m);
    const auto ref = oracle::non_overlapping_template_test(bits, m);
    EXPECT_TRUE(ref.applicable);
    expect_identical(ref, wordpar::non_overlapping_template_test(bits, m));
    expect_identical(oracle::non_overlapping_template_test(periodic, m),
                     wordpar::non_overlapping_template_test(periodic, m));
  }
}

TEST(BatteryEquivalence, FrequencyAndRunsAtWordBoundaries) {
  // Transition counting straddles word boundaries; sweep lengths around
  // multiples of 64 with patterned data to pin the boundary-pair logic.
  const auto spec = Gating::kSpecExample;
  for (std::size_t n = 120; n <= 200; ++n) {
    common::BitStream alt;
    for (std::size_t i = 0; i < n; ++i) alt.push_back((i / 3) % 2 == 0);
    expect_identical(oracle::runs_test(alt, spec),
                     wordpar::runs_test(alt, spec));
    expect_identical(oracle::frequency_test(alt, spec),
                     wordpar::frequency_test(alt, spec));
    expect_identical(oracle::cumulative_sums_test(alt, spec),
                     wordpar::cumulative_sums_test(alt, spec));
  }
}

TEST(BatteryEquivalence, LongestRunAndRankKernels) {
  const auto bits = random_bits(40000, 17);
  expect_identical(oracle::longest_run_test(bits),
                   wordpar::longest_run_test(bits));
  const auto big = random_bits(40000, 18);
  expect_identical(oracle::rank_test(big), wordpar::rank_test(big));
}

TEST(BatteryEquivalence, ExcursionsKernels) {
  const auto bits = random_bits(200000, 23);
  expect_identical(oracle::random_excursions_test(bits),
                   wordpar::random_excursions_test(bits));
  expect_identical(oracle::random_excursions_variant_test(bits),
                   wordpar::random_excursions_variant_test(bits));
}

/// |X_j| for j < n / 2 by the defining sum X_j = sum_k x_k e^{-2 pi i jk/n}
/// over the +-1 image of the first n bits: O(n^2), no FFT. The twiddle
/// index jk is reduced mod n before the angle is formed, so every twiddle
/// is accurate to an ulp.
std::vector<double> naive_dft_moduli(const common::BitStream& bits,
                                     std::size_t n) {
  const double two_pi = 2.0 * std::acos(-1.0);
  std::vector<double> cos_t(n), sin_t(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double angle =
        two_pi * static_cast<double>(k) / static_cast<double>(n);
    cos_t[k] = std::cos(angle);
    sin_t[k] = std::sin(angle);
  }
  std::vector<double> moduli(n / 2);
  for (std::size_t j = 0; j < n / 2; ++j) {
    double re = 0.0, im = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const double x = bits[k] ? 1.0 : -1.0;
      const std::size_t t = (j * k) % n;
      re += x * cos_t[t];
      im -= x * sin_t[t];
    }
    moduli[j] = std::hypot(re, im);
  }
  return moduli;
}

TEST(BatteryEquivalence, DftMatchesNaiveTransform) {
  // Power-of-two inputs up to 8192 bits, inputs the FFT truncates to a
  // power-of-two prefix (1500 -> 1024, 3000 -> 2048) and the n = 1000 gate
  // boundary, whose transform length is 512. Moduli agree to 1e-9 relative
  // to max(|X_j|, 1) (bins near zero are held to 1e-9 absolute), and on
  // inputs with no bin within that tolerance of the threshold T the below-T
  // count — and so the whole TestResult — matches exactly.
  constexpr double kRelTol = 1e-9;
  struct Case {
    std::size_t nbits;
    std::size_t n;  ///< transform length: largest power of two <= nbits
    std::uint64_t seed;
  };
  for (const Case c :
       {Case{1024, 1024, 31}, Case{2048, 2048, 32}, Case{1500, 1024, 33},
        Case{4096, 4096, 34}, Case{8192, 8192, 35}, Case{3000, 2048, 36},
        Case{1000, 512, 37}}) {
    SCOPED_TRACE(c.nbits);
    const auto bits = random_bits(c.nbits, c.seed);
    const std::size_t n = c.n;
    const auto ref = naive_dft_moduli(bits, n);
    // Section 2.6.4: T = sqrt(log(1/0.05) n).
    const double threshold =
        std::sqrt(std::log(1.0 / 0.05) * static_cast<double>(n));
    std::vector<double> power;
    const std::size_t counted =
        detail::dft_count_below(bits, threshold * threshold, &power);
    ASSERT_EQ(power.size(), n / 2);
    std::vector<double> got(n / 2);
    for (std::size_t j = 0; j < got.size(); ++j) got[j] = std::sqrt(power[j]);
    for (std::size_t j = 0; j < ref.size(); ++j) {
      EXPECT_LE(std::fabs(got[j] - ref[j]), kRelTol * std::max(ref[j], 1.0))
          << "bin " << j;
    }

    std::size_t ref_below = 0, got_below = 0;
    for (std::size_t j = 0; j < ref.size(); ++j) {
      ASSERT_GT(std::fabs(ref[j] - threshold), kRelTol * threshold)
          << "bin " << j << " is within tolerance of T; pick another seed";
      ref_below += ref[j] < threshold ? 1 : 0;
      got_below += got[j] < threshold ? 1 : 0;
    }
    EXPECT_EQ(ref_below, got_below);
    EXPECT_EQ(ref_below, counted);
    expect_identical(detail::dft_from_counts(n, ref_below),
                     wordpar::dft_test(bits));
  }
}

TEST(BatteryEquivalence, DftMatchesRadix2OracleAtFullLength) {
  // The radix-4 FFT against the radix-2 oracle at lengths the naive
  // transform cannot reach: 2^16 bits (an odd number of stages after the
  // packed two, so the packing does the span-8 stage, and no span beyond
  // the 2^15-point block), 2^20 (odd again, with two whole-array steps),
  // then 2^17 (an even number, one whole-array step) and 2^18 after it, so
  // that their long spans read every 8th and 4th twiddle of the 2^20-bit
  // table, and a 2^20 + 999-bit input truncated to 2^20. Moduli agree to
  // 1e-9 relative to max(|X_j|, 1); the below-T count and the TestResult
  // match exactly.
  constexpr double kRelTol = 1e-9;
  struct Case {
    std::size_t nbits;
    std::uint64_t seed;
  };
  for (const Case c : {Case{std::size_t{1} << 16, 41},
                       Case{std::size_t{1} << 20, 43},
                       Case{std::size_t{1} << 17, 42},
                       Case{std::size_t{1} << 18, 45},
                       Case{(std::size_t{1} << 20) + 999, 44}}) {
    SCOPED_TRACE(c.nbits);
    const auto bits = random_bits(c.nbits, c.seed);
    const std::size_t n = std::bit_floor(c.nbits);
    const double t2 = std::log(1.0 / 0.05) * static_cast<double>(n);
    const auto ref = oracle::dft_power_radix2(bits);
    std::vector<double> power;
    const std::size_t got_below = detail::dft_count_below(bits, t2, &power);
    ASSERT_EQ(ref.size(), n / 2);
    ASSERT_EQ(power.size(), n / 2);
    std::size_t ref_below = 0, mismatched = 0;
    for (std::size_t j = 0; j < ref.size(); ++j) {
      const double want = std::sqrt(ref[j]), got = std::sqrt(power[j]);
      if (std::fabs(got - want) > kRelTol * std::max(want, 1.0)) {
        ADD_FAILURE() << "bin " << j << ": " << got << " vs " << want;
        if (++mismatched == 10) break;
      }
      ref_below += ref[j] < t2 ? 1 : 0;
    }
    EXPECT_EQ(ref_below, got_below);
    expect_identical(detail::dft_from_counts(n, ref_below),
                     wordpar::dft_test(bits));
  }
}

TEST(BatteryEquivalence, DftConcurrentCallsAgree) {
  // Concurrent transforms of two lengths contend for the one transform
  // buffer the FFT keeps between calls; each call must return what it
  // returns alone.
  const std::array<common::BitStream, 2> inputs = {random_bits(1 << 14, 51),
                                                   random_bits(1 << 15, 52)};
  const std::array<TestResult, 2> alone = {wordpar::dft_test(inputs[0]),
                                           wordpar::dft_test(inputs[1])};
  std::array<int, 4> mismatches{};
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < mismatches.size(); ++t) {
      threads.emplace_back([&inputs, &alone, &mismatches, t] {
        for (std::size_t k = 0; k < 6; ++k) {
          const std::size_t which = (t + k) % 2;
          const TestResult r = wordpar::dft_test(inputs[which]);
          if (r.p_values != alone[which].p_values) ++mismatches[t];
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(mismatches, (std::array<int, 4>{}));
}

}  // namespace
}  // namespace trng::stat
