// Shared gates and statistic functions for the SP 800-22 suite. See the
// header for the bit-identity contract: every floating-point step of every
// test after the counting kernels lives here, in one translation unit, so
// the word-parallel kernels and the tests-only bit-serial oracle cannot
// diverge in their p-values.
#include "stattests/sp800_22_detail.hpp"

#include <cmath>
#include <cstdlib>

#include "common/gaussian.hpp"
#include "common/special.hpp"

namespace trng::stat::detail {

namespace {

TestResult inapplicable(const char* name, const char* note) {
  TestResult r;
  r.name = name;
  r.applicable = false;
  r.note = note;
  return r;
}

}  // namespace

// ---- applicability gates -------------------------------------------------

std::optional<TestResult> gate_frequency(std::size_t n, Gating gating) {
  if (gating == Gating::kStrict && n < 100) {
    return inapplicable("frequency", "requires n >= 100");
  }
  if (n == 0) return inapplicable("frequency", "empty sequence");
  return std::nullopt;
}

std::optional<TestResult> gate_runs(std::size_t n, Gating gating) {
  if (gating == Gating::kStrict && n < 100) {
    return inapplicable("runs", "requires n >= 100");
  }
  if (n == 0) return inapplicable("runs", "empty sequence");
  return std::nullopt;
}

std::optional<TestResult> gate_cusum(std::size_t n, Gating gating) {
  if (gating == Gating::kStrict && n < 100) {
    return inapplicable("cumulative_sums", "requires n >= 100");
  }
  if (n == 0) return inapplicable("cumulative_sums", "empty sequence");
  return std::nullopt;
}

std::optional<TestResult> gate_excursions(std::size_t n, const char* name) {
  if (n < 10000) return inapplicable(name, "requires n >= 10^4");
  return std::nullopt;
}

std::optional<TestResult> gate_serial(std::size_t n, unsigned m,
                                      Gating gating) {
  if (gating == Gating::kStrict) {
    if (m < 2 || m > 24 ||
        static_cast<double>(m) >= std::log2(static_cast<double>(n)) - 2.0) {
      return inapplicable("serial", "requires 2 <= m < log2(n) - 2");
    }
  } else {
    if (m < 2 || m > 24) {
      return inapplicable("serial", "requires 2 <= m <= 24");
    }
    if (n < m) {
      return inapplicable("serial", "sequence shorter than pattern length");
    }
  }
  return std::nullopt;
}

std::optional<TestResult> gate_approximate_entropy(std::size_t n, unsigned m,
                                                   Gating gating) {
  if (gating == Gating::kStrict) {
    if (m < 1 || m > 22 ||
        static_cast<double>(m) >= std::log2(static_cast<double>(n)) - 5.0) {
      return inapplicable("approximate_entropy",
                          "requires 1 <= m < log2(n) - 5");
    }
  } else {
    if (m < 1 || m > 22) {
      return inapplicable("approximate_entropy", "requires 1 <= m <= 22");
    }
    if (n < m + 1) {
      return inapplicable("approximate_entropy",
                          "sequence shorter than pattern length");
    }
  }
  return std::nullopt;
}

std::size_t block_frequency_auto_m(std::size_t n) {
  // Smallest M with N = n / M < 100 is floor(n / 100) + 1; the max with 20
  // covers short sequences. Any M >= n / 100 + 1 > 0.01 n also satisfies
  // the M > 0.01 n recommendation.
  return std::max<std::size_t>(20, n / 100 + 1);
}

std::optional<TestResult> gate_block_frequency(std::size_t n, std::size_t m,
                                               Gating gating) {
  const std::size_t big_n = m == 0 ? 0 : n / m;
  if (big_n == 0) {
    return inapplicable("block_frequency", "requires at least one block");
  }
  if (gating == Gating::kStrict) {
    // Section 2.2.7: M >= 20, M > 0.01 n, N < 100 (and n >= 100).
    if (n < 100) return inapplicable("block_frequency", "requires n >= 100");
    if (m < 20 || 100 * m <= n || big_n >= 100) {
      return inapplicable(
          "block_frequency",
          "block length violates 2.2.7 (requires M >= 20, M > 0.01 n, N < 100)");
    }
  }
  return std::nullopt;
}

std::optional<LongestRunRegime> longest_run_regime(std::size_t n) {
  if (n < 128) return std::nullopt;
  LongestRunRegime regime;
  if (n < 6272) {
    regime.block_len = 8;
    regime.thresholds = {1, 2, 3, 4};  // <=1, 2, 3, >=4
    regime.pi = {0.2148, 0.3672, 0.2305, 0.1875};
  } else if (n < 750000) {
    regime.block_len = 128;
    regime.thresholds = {4, 5, 6, 7, 8, 9};  // <=4 .. >=9
    regime.pi = {0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124};
  } else {
    regime.block_len = 10000;
    regime.thresholds = {10, 11, 12, 13, 14, 15, 16};  // <=10 .. >=16
    regime.pi = {0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727};
  }
  return regime;
}

std::optional<TestResult> gate_longest_run(std::size_t n) {
  if (n < 128) return inapplicable("longest_run", "requires n >= 128");
  return std::nullopt;
}

const UniversalRow* universal_row(std::size_t n) {
  // L selection table (SP 800-22 Section 2.9.4) and the corresponding
  // reference expected values / variances for random input.
  static constexpr UniversalRow kRows[] = {
      {387840, 6, 5.2177052, 2.954},     {904960, 7, 6.1962507, 3.125},
      {2068480, 8, 7.1836656, 3.238},    {4654080, 9, 8.1764248, 3.311},
      {10342400, 10, 9.1723243, 3.356},  {22753280, 11, 10.170032, 3.384},
      {49643520, 12, 11.168765, 3.401},
  };
  const UniversalRow* row = nullptr;
  for (const auto& candidate : kRows) {
    if (n >= candidate.min_n) row = &candidate;
  }
  return row;
}

std::optional<TestResult> gate_universal(std::size_t n) {
  if (universal_row(n) == nullptr) {
    return inapplicable("universal", "requires n >= 387840");
  }
  return std::nullopt;
}

std::optional<TestResult> gate_rank(std::size_t n) {
  if (n / 1024 < 38) {
    return inapplicable("rank",
                        "requires at least 38 32x32 matrices (n >= 38912)");
  }
  return std::nullopt;
}

std::optional<TestResult> gate_dft(std::size_t n) {
  if (n < 1000) return inapplicable("dft", "requires n >= 1000");
  return std::nullopt;
}

std::optional<TestResult> gate_linear_complexity(std::size_t n,
                                                 std::size_t block_len) {
  if (block_len < 500 || block_len > 5000) {
    return inapplicable("linear_complexity", "spec requires 500 <= M <= 5000");
  }
  if (n / block_len < 200) {
    return inapplicable("linear_complexity", "requires at least 200 blocks");
  }
  return std::nullopt;
}

std::optional<TestResult> gate_non_overlapping_template(std::size_t n,
                                                        unsigned tpl_len) {
  const std::size_t block_len = n / 8;
  // The chi-square approximation needs a healthy per-block expectation
  // mu = (M - m + 1) / 2^m; require mu >= 20 per block.
  if (tpl_len < 2 || tpl_len > 16 ||
      block_len < (std::size_t{20} << tpl_len) + tpl_len) {
    return inapplicable("non_overlapping_template",
                        "sequence too short for stable per-block statistics");
  }
  return std::nullopt;
}

std::optional<TestResult> gate_overlapping_template(std::size_t n,
                                                    unsigned tpl_len) {
  if (tpl_len != 9 || n / 1032 < 100) {
    return inapplicable("overlapping_template", "requires m = 9 and n >= ~10^5");
  }
  return std::nullopt;
}

// ---- statistic functions -------------------------------------------------

TestResult frequency_from_counts(std::size_t n, std::size_t ones) {
  TestResult r;
  r.name = "frequency";
  const double s_n =
      2.0 * static_cast<double>(ones) - static_cast<double>(n);  // sum of +-1
  const double s_obs = std::fabs(s_n) / std::sqrt(static_cast<double>(n));
  r.p_values.push_back(std::erfc(s_obs / std::sqrt(2.0)));
  return r;
}

TestResult block_frequency_from_counts(
    std::size_t block_len, const std::vector<std::size_t>& ones_per_block) {
  TestResult r;
  r.name = "block_frequency";
  double chi2 = 0.0;
  for (std::size_t ones : ones_per_block) {
    const double pi =
        static_cast<double>(ones) / static_cast<double>(block_len);
    chi2 += (pi - 0.5) * (pi - 0.5);
  }
  chi2 *= 4.0 * static_cast<double>(block_len);
  r.p_values.push_back(common::igamc(
      static_cast<double>(ones_per_block.size()) / 2.0, chi2 / 2.0));
  return r;
}

TestResult runs_from_counts(std::size_t n, std::size_t ones,
                            std::size_t transitions) {
  TestResult r;
  r.name = "runs";
  const double pi = static_cast<double>(ones) / static_cast<double>(n);
  const double tau = 2.0 / std::sqrt(static_cast<double>(n));
  if (std::fabs(pi - 0.5) >= tau) {
    // Frequency prerequisite failed: the spec assigns p = 0.
    r.p_values.push_back(0.0);
    r.note = "monobit prerequisite failed";
    return r;
  }
  const std::size_t v_n = transitions + 1;
  const double nn = static_cast<double>(n);
  const double num =
      std::fabs(static_cast<double>(v_n) - 2.0 * nn * pi * (1.0 - pi));
  const double den = 2.0 * std::sqrt(2.0 * nn) * pi * (1.0 - pi);
  r.p_values.push_back(std::erfc(num / den));
  return r;
}

TestResult longest_run_from_counts(const LongestRunRegime& regime,
                                   std::size_t big_n,
                                   const std::vector<unsigned>& per_block) {
  TestResult r;
  r.name = "longest_run";
  const auto& thresholds = regime.thresholds;
  std::vector<std::size_t> v(regime.pi.size(), 0);
  for (unsigned longest : per_block) {
    // Map the longest run to its category.
    std::size_t cat = 0;
    while (cat + 1 < thresholds.size() && longest > thresholds[cat]) ++cat;
    if (longest >= thresholds.back()) cat = thresholds.size() - 1;
    ++v[cat];
  }
  double chi2 = 0.0;
  for (std::size_t i = 0; i < regime.pi.size(); ++i) {
    const double expected = static_cast<double>(big_n) * regime.pi[i];
    const double d = static_cast<double>(v[i]) - expected;
    chi2 += d * d / expected;
  }
  const double k = static_cast<double>(regime.pi.size() - 1);
  r.p_values.push_back(common::igamc(k / 2.0, chi2 / 2.0));
  return r;
}

namespace {

/// Cumulative-sums p-value for maximum partial-sum excursion z over n bits.
double cusum_p_value(double z, double n) {
  const double sqrt_n = std::sqrt(n);
  double p = 1.0;
  const long k_lo1 = static_cast<long>(std::floor((-n / z + 1.0) / 4.0));
  const long k_hi1 = static_cast<long>(std::floor((n / z - 1.0) / 4.0));
  for (long k = k_lo1; k <= k_hi1; ++k) {
    const double kk = static_cast<double>(k);
    p -= common::normal_cdf((4.0 * kk + 1.0) * z / sqrt_n) -
         common::normal_cdf((4.0 * kk - 1.0) * z / sqrt_n);
  }
  const long k_lo2 = static_cast<long>(std::floor((-n / z - 3.0) / 4.0));
  const long k_hi2 = static_cast<long>(std::floor((n / z - 1.0) / 4.0));
  for (long k = k_lo2; k <= k_hi2; ++k) {
    const double kk = static_cast<double>(k);
    p += common::normal_cdf((4.0 * kk + 3.0) * z / sqrt_n) -
         common::normal_cdf((4.0 * kk + 1.0) * z / sqrt_n);
  }
  return std::min(1.0, std::max(0.0, p));
}

}  // namespace

TestResult cusum_from_extrema(std::size_t n, long z_fwd, long z_bwd) {
  TestResult r;
  r.name = "cumulative_sums";
  const double nn = static_cast<double>(n);
  r.p_values.push_back(cusum_p_value(static_cast<double>(z_fwd), nn));
  r.p_values.push_back(cusum_p_value(static_cast<double>(z_bwd), nn));
  return r;
}

TestResult excursions_from_counts(
    std::size_t cycles,
    const std::array<std::array<std::size_t, 6>, 8>& visits) {
  if (cycles < 500) {
    return inapplicable("random_excursions",
                        "fewer than 500 zero-crossing cycles");
  }
  TestResult r;
  r.name = "random_excursions";
  const double j = static_cast<double>(cycles);
  for (int s = 0; s < 8; ++s) {
    const int x = s < 4 ? s - 4 : s - 3;
    const double ax = std::abs(x);
    // Reference visit-count probabilities pi_k(x).
    double pi[6];
    pi[0] = 1.0 - 1.0 / (2.0 * ax);
    for (int k = 1; k <= 4; ++k) {
      pi[k] = 1.0 / (4.0 * ax * ax) * std::pow(1.0 - 1.0 / (2.0 * ax), k - 1);
    }
    pi[5] = 1.0 / (2.0 * ax) * std::pow(1.0 - 1.0 / (2.0 * ax), 4.0);

    double chi2 = 0.0;
    for (int k = 0; k < 6; ++k) {
      const double expected = j * pi[k];
      const double d =
          static_cast<double>(visits[static_cast<std::size_t>(s)]
                                    [static_cast<std::size_t>(k)]) -
          expected;
      chi2 += d * d / expected;
    }
    r.p_values.push_back(common::igamc(5.0 / 2.0, chi2 / 2.0));
  }
  return r;
}

TestResult excursions_variant_from_counts(
    std::size_t cycles, const std::array<std::size_t, 19>& total_visits) {
  if (cycles < 500) {
    return inapplicable("random_excursions_variant",
                        "fewer than 500 zero-crossing cycles");
  }
  TestResult r;
  r.name = "random_excursions_variant";
  const double j = static_cast<double>(cycles);
  for (int x = -9; x <= 9; ++x) {
    if (x == 0) continue;
    const double xi =
        static_cast<double>(total_visits[static_cast<std::size_t>(x + 9)]);
    const double denom = std::sqrt(2.0 * j * (4.0 * std::abs(x) - 2.0));
    r.p_values.push_back(std::erfc(std::fabs(xi - j) / denom));
  }
  return r;
}

double psi_squared_from_counts(std::size_t n,
                               const std::vector<std::size_t>& counts) {
  if (counts.empty()) return 0.0;  // psi^2_0 = 0 by definition
  const double nn = static_cast<double>(n);
  double sum = 0.0;
  for (std::size_t c : counts) {
    sum += static_cast<double>(c) * static_cast<double>(c);
  }
  return static_cast<double>(counts.size()) / nn * sum - nn;
}

TestResult serial_from_psis(unsigned m, double psi_m, double psi_m1,
                            double psi_m2) {
  TestResult r;
  r.name = "serial";
  const double d1 = psi_m - psi_m1;
  const double d2 = psi_m - 2.0 * psi_m1 + psi_m2;
  // Signed exponents: for m == 2 the second degree of freedom is 2^-1.
  r.p_values.push_back(
      common::igamc(std::exp2(static_cast<int>(m) - 2), d1 / 2.0));
  r.p_values.push_back(
      common::igamc(std::exp2(static_cast<int>(m) - 3), d2 / 2.0));
  return r;
}

double phi_from_counts(std::size_t n, const std::vector<std::size_t>& counts) {
  const double nn = static_cast<double>(n);
  double sum = 0.0;
  for (std::size_t c : counts) {
    if (c > 0) {
      const double pi = static_cast<double>(c) / nn;
      sum += pi * std::log(pi);
    }
  }
  return sum;
}

TestResult approximate_entropy_from_phis(std::size_t n, unsigned m,
                                         double phi_m, double phi_m1) {
  TestResult r;
  r.name = "approximate_entropy";
  const double nn = static_cast<double>(n);
  const double ap_en = phi_m - phi_m1;
  const double chi2 = 2.0 * nn * (std::log(2.0) - ap_en);
  r.p_values.push_back(
      common::igamc(std::exp2(static_cast<int>(m) - 1), chi2 / 2.0));
  return r;
}

UniversalStatistic universal_statistic_from_sum(double sum, std::size_t k,
                                                unsigned big_l,
                                                double expected,
                                                double variance) {
  UniversalStatistic stat;
  stat.k = k;
  const double kk = static_cast<double>(k);
  stat.fn = sum / kk;
  const double c = 0.7 - 0.8 / static_cast<double>(big_l) +
                   (4.0 + 32.0 / static_cast<double>(big_l)) *
                       std::pow(kk, -3.0 / static_cast<double>(big_l)) / 15.0;
  const double sigma = c * std::sqrt(variance / kk);
  stat.p_value =
      std::erfc(std::fabs(stat.fn - expected) / (std::sqrt(2.0) * sigma));
  return stat;
}

TestResult universal_from_sum(const UniversalRow& row, double sum,
                              std::size_t k) {
  TestResult r;
  r.name = "universal";
  r.p_values.push_back(
      universal_statistic_from_sum(sum, k, row.big_l, row.expected,
                                   row.variance)
          .p_value);
  return r;
}

TestResult dft_from_counts(std::size_t n, std::size_t below) {
  TestResult r;
  r.name = "dft";
  const double n0 = 0.95 * static_cast<double>(n / 2);
  const double n1 = static_cast<double>(below);
  const double d =
      (n1 - n0) / std::sqrt(static_cast<double>(n) * 0.95 * 0.05 / 4.0);
  r.p_values.push_back(std::erfc(std::fabs(d) / std::sqrt(2.0)));
  return r;
}

TestResult rank_from_counts(std::size_t big_n, std::size_t f_full,
                            std::size_t f_minus1) {
  TestResult r;
  r.name = "rank";
  // Reference category probabilities for 32x32 over GF(2): rank 32, 31,
  // <= 30 (SP 800-22 Section 3.5).
  constexpr double kPFull = 0.2888;
  constexpr double kPMinus1 = 0.5776;
  constexpr double kPRest = 0.1336;
  const double nn = static_cast<double>(big_n);
  const std::size_t f_rest = big_n - f_full - f_minus1;
  auto term = [nn](double observed, double p) {
    const double d = observed - nn * p;
    return d * d / (nn * p);
  };
  const double chi2 = term(static_cast<double>(f_full), kPFull) +
                      term(static_cast<double>(f_minus1), kPMinus1) +
                      term(static_cast<double>(f_rest), kPRest);
  // df = 2 => p = exp(-chi2 / 2).
  r.p_values.push_back(std::exp(-chi2 / 2.0));
  return r;
}

TestResult linear_complexity_from_lengths(
    std::size_t block_len, const std::vector<std::size_t>& lengths) {
  TestResult r;
  r.name = "linear_complexity";
  const double m = static_cast<double>(block_len);
  const double sign = (block_len % 2 == 0) ? 1.0 : -1.0;  // (-1)^M
  const double mu =
      m / 2.0 + (9.0 - sign) / 36.0 - (m / 3.0 + 2.0 / 9.0) / std::exp2(m);

  static constexpr double kPi[7] = {0.010417, 0.03125, 0.125, 0.5,
                                    0.25,     0.0625,  0.020833};
  std::vector<std::size_t> v(7, 0);
  for (std::size_t length : lengths) {
    const double l = static_cast<double>(length);
    const double t = sign * (l - mu) + 2.0 / 9.0;
    std::size_t cat;
    if (t <= -2.5) cat = 0;
    else if (t <= -1.5) cat = 1;
    else if (t <= -0.5) cat = 2;
    else if (t <= 0.5) cat = 3;
    else if (t <= 1.5) cat = 4;
    else if (t <= 2.5) cat = 5;
    else cat = 6;
    ++v[cat];
  }
  const double big_n = static_cast<double>(lengths.size());
  double chi2 = 0.0;
  for (std::size_t i = 0; i < 7; ++i) {
    const double expected = big_n * kPi[i];
    const double d = static_cast<double>(v[i]) - expected;
    chi2 += d * d / expected;
  }
  r.p_values.push_back(common::igamc(3.0, chi2 / 2.0));
  return r;
}

TestResult non_overlapping_template_from_counts(
    std::size_t n, unsigned tpl_len,
    const std::vector<std::array<std::size_t, 8>>& w) {
  TestResult r;
  r.name = "non_overlapping_template";
  const std::size_t block_len = n / 8;
  const double m = static_cast<double>(tpl_len);
  const double big_m = static_cast<double>(block_len);
  const double two_m = std::exp2(m);
  const double mu = (big_m - m + 1.0) / two_m;
  const double sigma2 =
      big_m * (1.0 / two_m - (2.0 * m - 1.0) / (two_m * two_m));
  for (const auto& per_block : w) {
    double chi2 = 0.0;
    for (std::size_t count : per_block) {
      const double d = static_cast<double>(count) - mu;
      chi2 += d * d / sigma2;
    }
    r.p_values.push_back(common::igamc(8.0 / 2.0, chi2 / 2.0));
  }
  return r;
}

TestResult overlapping_template_from_counts(
    std::size_t big_n, const std::array<std::size_t, 6>& v) {
  TestResult r;
  r.name = "overlapping_template";
  static constexpr double kPi[6] = {0.364091, 0.185659, 0.139381,
                                    0.100571, 0.070432, 0.139865};
  double chi2 = 0.0;
  for (std::size_t i = 0; i < 6; ++i) {
    const double expected = static_cast<double>(big_n) * kPi[i];
    const double d = static_cast<double>(v[i]) - expected;
    chi2 += d * d / expected;
  }
  r.p_values.push_back(common::igamc(5.0 / 2.0, chi2 / 2.0));
  return r;
}

}  // namespace trng::stat::detail
