// SP 800-22 test 2.6: discrete Fourier transform (spectral) test.
//
// Deviation from the reference implementation: the transform length is the
// largest power of two <= n (iterative radix-2 FFT) instead of an arbitrary-
// length DFT; trailing bits beyond the power-of-two boundary are ignored.
// The statistic is computed for the truncated length, so the test remains
// exact — it just examines slightly fewer bits. The FFT yields the
// below-threshold count; the p-value comes from sp800_22_detail.cpp like
// every other test's.
#include <cmath>
#include <complex>
#include <vector>

#include "stattests/sp800_22_detail.hpp"
#include "stattests/sp800_22_wordpar.hpp"

namespace trng::stat {

namespace {

void fft_in_place(std::vector<std::complex<double>>& a) {
  const std::size_t n = a.size();
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = -2.0 * 3.14159265358979323846 / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const std::complex<double> u = a[i + j];
        const std::complex<double> v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

}  // namespace

namespace detail {

std::vector<std::complex<double>> dft_spectrum(const common::BitStream& bits) {
  if (bits.empty()) return {};
  // Largest power of two <= size.
  std::size_t n = 1;
  while (n * 2 <= bits.size()) n *= 2;

  std::vector<std::complex<double>> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::complex<double>(bits[i] ? 1.0 : -1.0, 0.0);
  }
  fft_in_place(x);
  return x;
}

}  // namespace detail

namespace wordpar {

TestResult dft_test(const common::BitStream& bits) {
  if (auto gated = detail::gate_dft(bits.size())) return *gated;
  const auto x = detail::dft_spectrum(bits);
  const std::size_t n = x.size();
  const double threshold =
      std::sqrt(std::log(1.0 / 0.05) * static_cast<double>(n));
  std::size_t below = 0;
  for (std::size_t j = 0; j < n / 2; ++j) {
    if (std::abs(x[j]) < threshold) ++below;
  }
  return detail::dft_from_counts(n, below);
}

}  // namespace wordpar

}  // namespace trng::stat
