// NIST SP 800-22 statistical test suite, implemented from the specification
// (Rukhin et al., "A Statistical Test Suite for Random and Pseudorandom
// Number Generators for Cryptographic Applications", rev. 1a).
//
// All fifteen tests are provided, each once. Every function takes the bit
// sequence and returns a TestResult whose p_values follow the reference
// definitions; tests whose applicability prerequisites are not met
// (sequence too short, too few excursion cycles) return applicable = false
// rather than a fabricated p-value.
//
// The counting kernels work on BitStream::words() rather than one bit at a
// time: popcount for frequency/block-frequency, `w ^ (w >> 1)` transition
// masks for runs, byte lookup tables and chunk combining for longest-run/
// cumulative-sums, skip-ahead walks for the excursions tests, packed L-bit
// window extraction (BitStream::word_at) for universal/templates, one pass
// of m-bit windows into a histogram for the non-overlapping templates and
// for serial/approximate entropy (which sum their longest histogram down
// to the shorter ones), and Berlekamp–Massey on 64 blocks at once (one
// block per bit of a word) for linear complexity. The DFT is a real-input
// FFT on doubles: an n/2-point complex FFT plus a split step.
//
// The kernels only produce integer counts; the floating-point statistic is
// computed by the shared functions in sp800_22_detail.cpp. The tests-only
// bit-serial oracle (tests/sp800_22_oracle.hpp) feeds the same functions,
// so equal counts give bit-identical p-value doubles. The equivalence
// suite (tests/test_battery_equivalence.cpp) checks exact equality for
// every registered source; lint rule TL008 requires the same for any
// kernel added to the wordpar namespace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitstream.hpp"
#include "stattests/test_result.hpp"

namespace trng::stat {

/// Applicability-gating policy. kStrict (the production default) enforces
/// the specification's recommended minimum lengths and parameter ranges;
/// out-of-range inputs are reported applicable = false. kSpecExample
/// bypasses the *recommended* minimums only — the statistic itself is
/// computed identically — so the short worked examples of SP 800-22
/// Sections 2.x.4/2.x.8 (n = 10..100 bits) can be replayed as known-answer
/// tests against the published p-values.
enum class Gating { kStrict, kSpecExample };

/// Result of test 2.9's statistic with explicit parameters: fn, K and the
/// p-value (see wordpar::universal_statistic).
struct [[nodiscard]] UniversalStatistic {
  double fn = 0.0;
  std::size_t k = 0;  ///< number of test blocks
  double p_value = 0.0;
};

/// All aperiodic templates of length m (helper; a template is aperiodic if
/// no proper shift of it matches itself — the template set of test 2.7).
std::vector<std::uint32_t> aperiodic_templates(unsigned m);

}  // namespace trng::stat

namespace trng::stat::wordpar {

/// 2.1 Frequency (monobit) test. Requires n >= 100 under kStrict.
TestResult frequency_test(const common::BitStream& bits,
                          Gating gating = Gating::kStrict);

/// 2.2 Frequency test within a block; `block_len` = M. block_len == 0
/// auto-selects M per the Section 2.2.7 recommendations (M >= 20,
/// M > 0.01 n, N < 100). Under kStrict an explicit out-of-range M is
/// reported inapplicable with a note; kSpecExample accepts any M >= 1
/// with at least one complete block (the Section 2.2.8 worked example
/// uses M = 10 on n = 100, which violates the recommendations).
TestResult block_frequency_test(const common::BitStream& bits,
                                std::size_t block_len = 0,
                                Gating gating = Gating::kStrict);

/// 2.3 Runs test. Requires n >= 100 under kStrict.
TestResult runs_test(const common::BitStream& bits,
                     Gating gating = Gating::kStrict);

/// 2.4 Longest run of ones in a block. Chooses M in {8, 128, 10^4} from n;
/// requires n >= 128.
TestResult longest_run_test(const common::BitStream& bits);

/// 2.5 Binary matrix rank test (32x32). Requires n >= 38 * 1024.
TestResult rank_test(const common::BitStream& bits);

/// 2.6 Discrete Fourier transform (spectral) test. Requires n >= 1000.
/// Transforms the largest power-of-two prefix of the sequence.
TestResult dft_test(const common::BitStream& bits);

/// 2.7 Non-overlapping template matching, all aperiodic templates of length
/// `tpl_len` (default 9, the NIST default), 8 blocks. One p-value per
/// template. Requires n >= 8 * tpl_len * 8.
TestResult non_overlapping_template_test(const common::BitStream& bits,
                                         unsigned tpl_len = 9);

/// 2.8 Overlapping template matching (all-ones template of length
/// `tpl_len`, default 9). Requires n >= 10^6 for the reference pi values.
TestResult overlapping_template_test(const common::BitStream& bits,
                                     unsigned tpl_len = 9);

/// 2.9 Maurer's universal statistical test. L and Q are chosen from n per
/// the specification table; requires n >= 387840 (L = 6).
TestResult universal_test(const common::BitStream& bits);

/// Core of test 2.9 with explicit parameters: blocks of `big_l` bits,
/// `q` initialization blocks, expected value / variance for random input
/// supplied by the caller (the Section 2.9.4 worked example uses L = 2,
/// Q = 4 — far below the production table, hence this ungated entry point
/// for known-answer tests). Throws std::invalid_argument unless
/// 1 <= big_l <= 16 and there are more than q complete blocks.
UniversalStatistic universal_statistic(const common::BitStream& bits,
                                       unsigned big_l, std::size_t q,
                                       double expected, double variance);

/// 2.10 Linear complexity test (Berlekamp–Massey over GF(2)),
/// block length M = 500. Requires n >= 10^6 per the spec (we accept
/// n >= 200 * 500 and mark shorter inputs inapplicable).
TestResult linear_complexity_test(const common::BitStream& bits,
                                  std::size_t block_len = 500);

/// 2.11 Serial test, pattern length m (default 16 per the spec example for
/// n = 10^6; m must satisfy m < log2(n) - 2 under kStrict). Two p-values.
TestResult serial_test(const common::BitStream& bits, unsigned m = 16,
                       Gating gating = Gating::kStrict);

/// 2.12 Approximate entropy test, pattern length m (default 10;
/// m < log2(n) - 5 required under kStrict).
TestResult approximate_entropy_test(const common::BitStream& bits,
                                    unsigned m = 10,
                                    Gating gating = Gating::kStrict);

/// 2.13 Cumulative sums test, forward and backward. Two p-values.
/// Requires n >= 100 under kStrict.
TestResult cumulative_sums_test(const common::BitStream& bits,
                                Gating gating = Gating::kStrict);

/// 2.14 Random excursions test (states -4..-1, 1..4, 8 p-values).
/// Inapplicable when the number of zero-crossing cycles J < 500.
TestResult random_excursions_test(const common::BitStream& bits);

/// 2.15 Random excursions variant test (states -9..-1, 1..9, 18 p-values).
/// Inapplicable when J < 500.
TestResult random_excursions_variant_test(const common::BitStream& bits);

/// Bitsliced GF(2) rank of `nrows` packed matrix rows (row r's column j at
/// rows[r] bit j, as the rank test packs them): pivot-insertion row echelon
/// — each row is reduced against the pivots found so far, one whole-row XOR
/// per leading bit, with no column-major search loops (helper, exposed for
/// unit testing).
int gf2_rank_rowechelon(const std::uint64_t* rows, int nrows);

}  // namespace trng::stat::wordpar
