#include "common/special.hpp"

#include <math.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace trng::common {

namespace {

constexpr double kMachEps = std::numeric_limits<double>::epsilon();
constexpr double kBig = 4.503599627370496e15;
constexpr double kBigInv = 2.22044604925031308085e-16;

// Both expansions converge in tens of terms over this library's entire
// input domain (chi-square statistics of finite bit sequences); the cap
// turns a would-be infinite loop on pathological input (NaN propagation,
// denormal stalls) into a loud failure instead of a hang. Note the loop
// exit conditions below compare floating-point values with strict
// inequalities — never ==/!= — so convergence cannot ping-pong on ulps.
constexpr int kMaxIterations = 10000;

[[noreturn]] void throw_no_convergence(const char* fn) {
  throw std::runtime_error(std::string(fn) +
                           ": no convergence after 10000 iterations");
}

// glibc's lgamma() writes its sign result to the process-global `signgam`,
// which is a data race when battery jobs evaluate igamc() concurrently on
// executor threads. The reentrant lgamma_r() returns the identical value
// and keeps the sign in a caller-local out-parameter; every argument here
// is positive, so the sign is discarded.
double lgamma_threadsafe(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

/// Series expansion for P(a, x), converges fast for x < a + 1.
double igam_series(double a, double x) {
  double ax = a * std::log(x) - x - lgamma_threadsafe(a);
  if (ax < -709.78) return 0.0;  // underflow of exp
  ax = std::exp(ax);

  double r = a;
  double c = 1.0;
  double ans = 1.0;
  for (int i = 0;; ++i) {
    if (i >= kMaxIterations) throw_no_convergence("igam_series");
    r += 1.0;
    c *= x / r;
    ans += c;
    if (!(c / ans > kMachEps)) break;
  }
  return ans * ax / a;
}

/// Continued fraction for Q(a, x), converges fast for x >= a + 1.
double igamc_cfrac(double a, double x) {
  double ax = a * std::log(x) - x - lgamma_threadsafe(a);
  if (ax < -709.78) return 0.0;
  ax = std::exp(ax);

  double y = 1.0 - a;
  double z = x + y + 1.0;
  double c = 0.0;
  double pkm2 = 1.0;
  double qkm2 = x;
  double pkm1 = x + 1.0;
  double qkm1 = z * x;
  double ans = pkm1 / qkm1;
  double t;
  int iterations = 0;
  do {
    if (++iterations > kMaxIterations) throw_no_convergence("igamc_cfrac");
    c += 1.0;
    y += 1.0;
    z += 2.0;
    const double yc = y * c;
    const double pk = pkm1 * z - pkm2 * yc;
    const double qk = qkm1 * z - qkm2 * yc;
    // Exact != 0.0 is correct here: this guards the division below against
    // the one value that raises FE_DIVBYZERO; any nonzero qk, however
    // tiny, yields a finite convergent (the kBig rescaling keeps the
    // recurrence magnitudes bounded).
    if (qk != 0.0) {
      const double r = pk / qk;
      t = std::fabs((ans - r) / r);
      ans = r;
    } else {
      t = 1.0;
    }
    pkm2 = pkm1;
    pkm1 = pk;
    qkm2 = qkm1;
    qkm1 = qk;
    if (std::fabs(pk) > kBig) {
      pkm2 *= kBigInv;
      pkm1 *= kBigInv;
      qkm2 *= kBigInv;
      qkm1 *= kBigInv;
    }
  } while (t > kMachEps);
  return ans * ax;
}

}  // namespace

double igam(double a, double x) {
  if (a <= 0.0 || x < 0.0) {
    throw std::domain_error("igam: requires a > 0 and x >= 0");
  }
  // Exact == 0.0 is correct: P(a, 0) = 0 is the boundary value, and x = 0
  // would otherwise feed log(0) into the series prefactor.
  if (x == 0.0) return 0.0;
  if (x > 1.0 && x > a) return 1.0 - igamc_cfrac(a, x);
  return igam_series(a, x);
}

double igamc(double a, double x) {
  if (a <= 0.0 || x < 0.0) {
    throw std::domain_error("igamc: requires a > 0 and x >= 0");
  }
  // Exact == 0.0: Q(a, 0) = 1, same boundary rationale as igam().
  if (x == 0.0) return 1.0;
  if (x < 1.0 || x < a) return 1.0 - igam_series(a, x);
  return igamc_cfrac(a, x);
}

}  // namespace trng::common
