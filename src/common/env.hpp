// Environment-variable size knobs shared by benches, examples and smoke
// tests, so short CI budgets and full paper-scale runs share one binary.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace trng::common {

/// Reads a size knob from the environment (e.g. TRNG_BENCH_BITS); returns
/// `fallback` when unset, zero, or not a plain run of decimal digits that
/// fits in std::size_t (signs, suffixes, spaces and overflow included).
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const char* end = v + std::strlen(v);
  std::size_t parsed = 0;
  // from_chars into an unsigned type takes digits only: no sign, no
  // leading space; overflow is reported as result_out_of_range (ERANGE).
  const auto [ptr, ec] = std::from_chars(v, end, parsed);
  if (ec != std::errc{} || ptr != end || parsed == 0) return fallback;
  return parsed;
}

}  // namespace trng::common
