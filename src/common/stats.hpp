// Online statistics and small numeric helpers used across the repository:
// jitter-measurement post-processing, compensated summation for the
// stochastic model's long Gaussian tail sums, and binary entropy.
#pragma once

#include <cstddef>

namespace trng::common {

/// Welford's online mean/variance accumulator — numerically stable for the
/// long measurement runs used in platform characterization.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  /// Throws std::logic_error if no samples were added.
  double mean() const;
  /// Unbiased sample variance; throws std::logic_error if count() < 2.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

  void reset();

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Kahan–Neumaier compensated accumulator. Eq. 3 of the paper sums many
/// nearly-cancelling Gaussian masses; naive summation loses digits exactly
/// where the entropy bound is tightest.
class KahanSum {
 public:
  void add(double x);
  double value() const { return sum_ + compensation_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// Binary Shannon entropy H(p) = -p log2 p - (1-p) log2 (1-p); H(0)=H(1)=0.
double binary_entropy(double p);

}  // namespace trng::common
