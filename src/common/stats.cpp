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

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (!(hi > lo) || bins == 0) {
    throw std::invalid_argument("Histogram: requires hi > lo and bins >= 1");
  }
}

void Histogram::add(double x) {
  auto idx = static_cast<long>(std::floor((x - lo_) / width_));
  idx = std::clamp(idx, 0L, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

std::size_t Histogram::bin_count(std::size_t i) const {
  if (i >= counts_.size()) throw std::out_of_range("Histogram::bin_count");
  return counts_[i];
}

double Histogram::bin_center(std::size_t i) const {
  if (i >= counts_.size()) throw std::out_of_range("Histogram::bin_center");
  return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

double chi_square_statistic(const std::vector<std::size_t>& observed,
                            const std::vector<double>& expected) {
  if (observed.size() != expected.size()) {
    throw std::invalid_argument("chi_square_statistic: size mismatch");
  }
  double chi2 = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (expected[i] <= 0.0) {
      throw std::invalid_argument(
          "chi_square_statistic: expected counts must be positive");
    }
    const double d = static_cast<double>(observed[i]) - expected[i];
    chi2 += d * d / expected[i];
  }
  return chi2;
}

double binary_entropy(double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::domain_error("binary_entropy: p must lie in [0, 1]");
  }
  if (p == 0.0 || p == 1.0) return 0.0;
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

}  // namespace trng::common
