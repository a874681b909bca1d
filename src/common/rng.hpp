// Deterministic simulation PRNGs.
//
// All randomness used to *simulate* physical noise flows from these
// generators, so every experiment in the repository is reproducible
// bit-for-bit from its seed. (The TRNG under test produces randomness from
// the simulated physics; these PRNGs are the physics substrate, not the
// product.)
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace trng::common {

/// Largest |value| Xoshiro256StarStar::next_gaussian() can return.
/// The polar method's uniforms u, v = 2 * next_double() - 1 lie on a
/// 2^-52 grid, so the smallest accepted s = u^2 + v^2 > 0 is 2^-104
/// (u = +-2^-52, v = 0). An output u * sqrt(-2 ln s / s) has magnitude at
/// most sqrt(-2 ln s), which is largest at the smallest s:
/// sqrt(208 ln 2) = 12.0073. The constant rounds that up so the few ulps
/// of rounding in the computed value stay under it. Callers that skip a
/// draw whose scaled deviate could not change an outcome stay exact in
/// distribution: no draw is truncated.
inline constexpr double kPolarGaussianBound = 12.01;

/// SplitMix64: tiny, high-quality 64-bit generator. Used to expand a single
/// user seed into independent stream seeds (the standard xoshiro seeding
/// recipe) and as a cheap standalone generator in tests.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna). Fast, passes BigCrush, 2^256-1
/// period. Satisfies std::uniform_random_bit_generator so it plugs into
/// <random> distributions where convenient.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seeds all 256 bits of state via SplitMix64 so that nearby seeds give
  /// unrelated streams.
  explicit Xoshiro256StarStar(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Standard normal deviate (Marsaglia polar method with caching).
  /// Defined inline: this is the single hottest call in the physics
  /// simulation (every transition and every flip-flop capture draws one).
  double next_gaussian() {
    if (has_cached_gaussian_) {
      has_cached_gaussian_ = false;
      return cached_gaussian_;
    }
    // Marsaglia polar method: ~1.27 uniform pairs per output pair, no trig.
    double u, v, s;
    do {
      u = 2.0 * next_double() - 1.0;
      v = 2.0 * next_double() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    cached_gaussian_ = v * factor;
    has_cached_gaussian_ = true;
    return u * factor;
  }

  /// Block form of next_gaussian(): fills out[0..n) with standard normal
  /// deviates, consuming the uniform stream in exactly the same order as n
  /// successive next_gaussian() calls — same values, same final generator
  /// state (including the one-value polar cache). This is the draw-order
  /// contract that lets batch kernels pre-draw whole jitter blocks and stay
  /// bit-identical to their scalar reference paths.
  void fill_gaussian(double* out, std::size_t n);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace trng::common
