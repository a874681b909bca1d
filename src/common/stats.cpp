#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace trng::common {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  if (n_ == 0) throw std::logic_error("RunningStats::mean: no samples");
  return mean_;
}

double RunningStats::variance() const {
  if (n_ < 2) throw std::logic_error("RunningStats::variance: need >= 2 samples");
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  if (n_ == 0) throw std::logic_error("RunningStats::min: no samples");
  return min_;
}

double RunningStats::max() const {
  if (n_ == 0) throw std::logic_error("RunningStats::max: no samples");
  return max_;
}

void RunningStats::reset() { *this = RunningStats{}; }

void KahanSum::add(double x) {
  const double t = sum_ + x;
  if (std::fabs(sum_) >= std::fabs(x)) {
    compensation_ += (sum_ - t) + x;
  } else {
    compensation_ += (x - t) + sum_;
  }
  sum_ = t;
}

double binary_entropy(double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::domain_error("binary_entropy: p must lie in [0, 1]");
  }
  if (p == 0.0 || p == 1.0) return 0.0;
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

}  // namespace trng::common
