// Special functions needed by the statistical test suite (chi-square and
// gamma tail probabilities behind the NIST SP 800-22 p-values).
#pragma once

namespace trng::common {

/// Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a).
/// Requires a > 0, x >= 0.
double igam(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a).
/// This is NIST's `igamc`; p-values of chi-square statistics are
/// Q(df/2, chi2/2). Requires a > 0, x >= 0.
double igamc(double a, double x);

}  // namespace trng::common
