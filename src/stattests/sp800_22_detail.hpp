// Shared statistic layer of the SP 800-22 implementation.
//
// Every test is split into two halves:
//
//   1. a *counting kernel* that reduces the bit sequence to small integer
//      summaries (ones counts, transition counts, per-block longest runs,
//      pattern histograms, ...). The word-parallel kernels in
//      sp800_22_wordpar*.cpp are the implementation; the tests-only
//      bit-serial oracle (tests/sp800_22_oracle.hpp) restates each one a
//      bit at a time;
//
//   2. the *statistic functions* declared here, which map those integer
//      summaries to chi-square / erfc / igamc p-values.
//
// The statistic functions are deliberately defined out-of-line in one
// translation unit (sp800_22_detail.cpp): the kernels and the oracle
// execute the same machine code on the same integers, so the production
// kernels are checked against the oracle bit for bit — equal counts imply
// equal doubles, not merely close ones.
//
// Everything in stat::detail is an internal contract between the kernel
// files (and the oracle); it is not part of the public battery API.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitstream.hpp"
#include "stattests/sp800_22_wordpar.hpp"
#include "stattests/test_result.hpp"

namespace trng::stat::detail {

// ---- applicability gates -------------------------------------------------
//
// Each gate returns the fully-formed inapplicable TestResult when the input
// does not meet the test's prerequisites (so the kernels and the oracle
// report byte-identical notes), or nullopt when the test should run.

std::optional<TestResult> gate_frequency(std::size_t n, Gating gating);
std::optional<TestResult> gate_runs(std::size_t n, Gating gating);
std::optional<TestResult> gate_cusum(std::size_t n, Gating gating);
std::optional<TestResult> gate_excursions(std::size_t n, const char* name);
std::optional<TestResult> gate_serial(std::size_t n, unsigned m,
                                      Gating gating);
std::optional<TestResult> gate_approximate_entropy(std::size_t n, unsigned m,
                                                   Gating gating);

/// Auto-selected block-frequency M for block_len == 0: the smallest M with
/// N = n / M < 100 (and at least 20), which also satisfies M > 0.01 n.
std::size_t block_frequency_auto_m(std::size_t n);
/// Gate for an already-resolved M (Section 2.2.7: M >= 20, M > 0.01 n,
/// N < 100; kSpecExample only requires one complete block).
std::optional<TestResult> gate_block_frequency(std::size_t n, std::size_t m,
                                               Gating gating);

struct LongestRunRegime {
  std::size_t block_len = 0;
  std::vector<unsigned> thresholds;  ///< category boundaries (inclusive low)
  std::vector<double> pi;
};
/// Regime table of Section 2.4.4 keyed on n; nullopt when n < 128 (the
/// inapplicable TestResult is produced by gate_longest_run).
std::optional<LongestRunRegime> longest_run_regime(std::size_t n);
std::optional<TestResult> gate_longest_run(std::size_t n);

struct UniversalRow {
  std::size_t min_n = 0;
  unsigned big_l = 0;
  double expected = 0.0;
  double variance = 0.0;
};
/// Section 2.9.4 L-selection row for n, or nullptr when n < 387840.
const UniversalRow* universal_row(std::size_t n);
std::optional<TestResult> gate_universal(std::size_t n);

std::optional<TestResult> gate_rank(std::size_t n);
std::optional<TestResult> gate_dft(std::size_t n);
std::optional<TestResult> gate_linear_complexity(std::size_t n,
                                                 std::size_t block_len);
std::optional<TestResult> gate_non_overlapping_template(std::size_t n,
                                                        unsigned tpl_len);
std::optional<TestResult> gate_overlapping_template(std::size_t n,
                                                    unsigned tpl_len);

// ---- statistic functions (integer counts -> TestResult) ------------------

TestResult frequency_from_counts(std::size_t n, std::size_t ones);

TestResult block_frequency_from_counts(
    std::size_t block_len, const std::vector<std::size_t>& ones_per_block);

/// v_n = transitions + 1 per Section 2.3.4.
TestResult runs_from_counts(std::size_t n, std::size_t ones,
                            std::size_t transitions);

TestResult longest_run_from_counts(const LongestRunRegime& regime,
                                   std::size_t big_n,
                                   const std::vector<unsigned>& per_block);

/// z_fwd / z_bwd are the maximum absolute partial sums of the +-1 walk.
TestResult cusum_from_extrema(std::size_t n, long z_fwd, long z_bwd);

/// visits[s][k]: cycles visiting state s (-4..-1,1..4 -> index 0..7)
/// exactly k times, k capped at 5.
TestResult excursions_from_counts(
    std::size_t cycles, const std::array<std::array<std::size_t, 6>, 8>& visits);

/// total_visits[x + 9] for states x in -9..9 (index 9 unused).
TestResult excursions_variant_from_counts(
    std::size_t cycles, const std::array<std::size_t, 19>& total_visits);

/// psi^2_m from the 2^m overlapping-pattern histogram (Section 2.11.4);
/// 0.0 for m == 0 (empty histogram).
double psi_squared_from_counts(std::size_t n,
                               const std::vector<std::size_t>& counts);
TestResult serial_from_psis(unsigned m, double psi_m, double psi_m1,
                            double psi_m2);

/// phi_m = sum pi log pi over the same histogram (Section 2.12.4).
double phi_from_counts(std::size_t n, const std::vector<std::size_t>& counts);
TestResult approximate_entropy_from_phis(std::size_t n, unsigned m,
                                         double phi_m, double phi_m1);

/// `sum` is the accumulated log2 distance sum over the K test blocks.
TestResult universal_from_sum(const UniversalRow& row, double sum,
                              std::size_t k);
UniversalStatistic universal_statistic_from_sum(double sum, std::size_t k,
                                                unsigned big_l,
                                                double expected,
                                                double variance);

/// The number of j < n / 2 with |X_j|^2 < t2, X = the DFT of the +-1 image
/// of the largest power-of-two prefix of `bits` (length n). When `power` is
/// not null it is resized to n / 2 and receives every |X_j|^2. Inputs
/// shorter than 8 bits count 0 and leave `power` empty.
std::size_t dft_count_below(const common::BitStream& bits, double t2,
                            std::vector<double>* power = nullptr);
/// `below`: moduli |X_j|, j < n / 2, under the 95% threshold
/// T = sqrt(log(1/0.05) n).
TestResult dft_from_counts(std::size_t n, std::size_t below);

TestResult rank_from_counts(std::size_t big_n, std::size_t f_full,
                            std::size_t f_minus1);

TestResult linear_complexity_from_lengths(
    std::size_t block_len, const std::vector<std::size_t>& lengths);

/// w[t][b]: non-overlapping occurrence count of template t in block b
/// (templates in aperiodic_templates(tpl_len) order, 8 blocks).
TestResult non_overlapping_template_from_counts(
    std::size_t n, unsigned tpl_len,
    const std::vector<std::array<std::size_t, 8>>& w);

/// v[k]: number of 1032-bit blocks containing k (capped at 5) overlapping
/// all-ones matches.
TestResult overlapping_template_from_counts(
    std::size_t big_n, const std::array<std::size_t, 6>& v);

}  // namespace trng::stat::detail
