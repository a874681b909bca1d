// Unit tests for the incomplete-gamma machinery behind the NIST p-values.
#include <gtest/gtest.h>

#include <cmath>

#include "common/special.hpp"

namespace trng::common {
namespace {

TEST(Igam, ComplementIdentity) {
  for (double a : {0.5, 1.0, 2.5, 10.0, 100.0}) {
    for (double x : {0.01, 0.5, 1.0, 3.0, 10.0, 50.0}) {
      EXPECT_NEAR(igam(a, x) + igamc(a, x), 1.0, 1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(Igamc, ExponentialSpecialCase) {
  // Q(1, x) = exp(-x) exactly.
  for (double x : {0.0, 0.1, 1.0, 5.0, 20.0}) {
    EXPECT_NEAR(igamc(1.0, x), std::exp(-x), 1e-13);
  }
}

TEST(Igamc, HalfIntegerSpecialCase) {
  // Q(1/2, x) = erfc(sqrt(x)).
  for (double x : {0.01, 0.25, 1.0, 4.0, 9.0}) {
    EXPECT_NEAR(igamc(0.5, x), std::erfc(std::sqrt(x)), 1e-12);
  }
}

TEST(Igamc, Boundaries) {
  EXPECT_DOUBLE_EQ(igamc(3.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(igam(3.0, 0.0), 0.0);
  EXPECT_NEAR(igamc(2.0, 1e6), 0.0, 1e-300);
}

TEST(Igamc, RejectsBadArguments) {
  EXPECT_THROW(igamc(0.0, 1.0), std::domain_error);
  EXPECT_THROW(igamc(-1.0, 1.0), std::domain_error);
  EXPECT_THROW(igamc(1.0, -1.0), std::domain_error);
  EXPECT_THROW(igam(0.0, 1.0), std::domain_error);
}

TEST(Igamc, IsMonotoneInX) {
  double prev = 1.0;
  for (double x = 0.0; x < 30.0; x += 0.5) {
    const double q = igamc(4.0, x);
    EXPECT_LE(q, prev + 1e-15);
    prev = q;
  }
}

}  // namespace
}  // namespace trng::common
