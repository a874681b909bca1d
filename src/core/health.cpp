#include "core/health.hpp"

#include <cmath>
#include <stdexcept>

#include "common/gaussian.hpp"

namespace trng::core {

RepetitionCountTest::RepetitionCountTest(double h_per_bit, double alpha_log2) {
  if (!(h_per_bit > 0.0) || h_per_bit > 1.0 || !(alpha_log2 > 0.0)) {
    throw std::invalid_argument("RepetitionCountTest: bad parameters");
  }
  cutoff_ = 1 + static_cast<unsigned>(std::ceil(alpha_log2 / h_per_bit));
}

bool RepetitionCountTest::feed(bool bit) {
  if (run_ == 0 || bit != last_) {
    last_ = bit;
    run_ = 1;
    return false;
  }
  if (++run_ >= cutoff_) {
    ++alarms_;
    run_ = 0;
    return true;
  }
  return false;
}

void RepetitionCountTest::reset() {
  last_ = false;
  run_ = 0;
  alarms_ = 0;
}

AdaptiveProportionTest::AdaptiveProportionTest(double h_per_bit,
                                               unsigned window,
                                               double alpha_log2)
    : window_(window) {
  if (!(h_per_bit > 0.0) || h_per_bit > 1.0 || window < 16 ||
      !(alpha_log2 > 0.0)) {
    throw std::invalid_argument("AdaptiveProportionTest: bad parameters");
  }
  // For a binary source with min-entropy H, the most likely value has
  // probability p = 2^-H. Cutoff = binomial(window, p) upper quantile at
  // 1 - alpha, via the normal approximation with continuity correction.
  const double p = std::exp2(-h_per_bit);
  const double alpha = std::exp2(-alpha_log2);
  const double mu = static_cast<double>(window) * p;
  const double sd = std::sqrt(static_cast<double>(window) * p * (1.0 - p));
  const double q = common::normal_quantile(1.0 - alpha);
  double cutoff = std::ceil(mu + q * sd + 0.5);
  cutoff = std::min(cutoff, static_cast<double>(window));
  cutoff_ = static_cast<unsigned>(cutoff);
}

bool AdaptiveProportionTest::feed(bool bit) {
  if (pos_ == 0) {
    reference_ = bit;
    count_ = 1;
    pos_ = 1;
    return false;
  }
  if (bit == reference_) ++count_;
  if (++pos_ < window_) {
    if (count_ > cutoff_) {
      // Alarm as soon as the cutoff is exceeded; restart the window.
      ++alarms_;
      pos_ = 0;
      return true;
    }
    return false;
  }
  const bool alarm = count_ > cutoff_;
  if (alarm) ++alarms_;
  pos_ = 0;
  return alarm;
}

void AdaptiveProportionTest::reset() {
  pos_ = 0;
  count_ = 0;
  reference_ = false;
  alarms_ = 0;
}

TotalFailureTest::TotalFailureTest(unsigned consecutive_miss_cutoff)
    : cutoff_(consecutive_miss_cutoff) {
  if (cutoff_ == 0) {
    throw std::invalid_argument("TotalFailureTest: cutoff must be >= 1");
  }
}

void TotalFailureTest::reset() {
  misses_ = 0;
  alarms_ = 0;
}

bool TotalFailureTest::feed(bool edge_found) {
  if (edge_found) {
    misses_ = 0;
    return false;
  }
  if (++misses_ >= cutoff_) {
    ++alarms_;
    misses_ = 0;
    return true;
  }
  return false;
}

OnlineHealthMonitor::OnlineHealthMonitor(double h_per_bit, double alpha_log2)
    : rep_(h_per_bit, alpha_log2), prop_(h_per_bit, 1024, alpha_log2), fail_() {}

bool OnlineHealthMonitor::feed(bool bit, bool edge_found) {
  // Evaluate all tests (no short-circuit) so every counter stays live.
  const bool a = rep_.feed(bit);
  const bool b = prop_.feed(bit);
  const bool c = fail_.feed(edge_found);
  return a || b || c;
}

std::uint64_t OnlineHealthMonitor::feed_block(const std::uint64_t* words,
                                              common::Bits nbits) {
  std::uint64_t block_alarms = 0;
  for (std::size_t i = 0, n = nbits.count(); i < n; ++i) {
    if (feed(((words[i >> 6] >> (i & 63)) & 1ULL) != 0,
             /*edge_found=*/true)) {
      ++block_alarms;
    }
  }
  return block_alarms;
}

void OnlineHealthMonitor::reset() {
  rep_.reset();
  prop_.reset();
  fail_.reset();
}

std::uint64_t OnlineHealthMonitor::total_alarms() const {
  return rep_.alarms() + prop_.alarms() + fail_.alarms();
}

}  // namespace trng::core
