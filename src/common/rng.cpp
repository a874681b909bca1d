#include "common/rng.hpp"

#include <cmath>

namespace trng::common {

void Xoshiro256StarStar::fill_gaussian(double* out, std::size_t n) {
  std::size_t i = 0;
  // Drain the polar cache first — exactly what the first next_gaussian()
  // call of an equivalent scalar sequence would return.
  if (has_cached_gaussian_ && i < n) {
    has_cached_gaussian_ = false;
    out[i++] = cached_gaussian_;
  }
  // Whole pairs: the polar method produces (u*factor, v*factor) together;
  // the scalar path returns the first and caches the second, so writing
  // both directly yields the identical value sequence without bouncing
  // through the cache.
  while (i + 2 <= n) {
    double u, v, s;
    do {
      u = 2.0 * next_double() - 1.0;
      v = 2.0 * next_double() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    out[i++] = u * factor;
    out[i++] = v * factor;
  }
  // Odd tail: one more scalar draw, which leaves its partner in the cache —
  // the same end state as n scalar calls.
  if (i < n) out[i] = next_gaussian();
}

}  // namespace trng::common
