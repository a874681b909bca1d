// SP 800-22 test 2.6: discrete Fourier transform (spectral) test.
//
// Deviation from the reference implementation: the transform length is the
// largest power of two <= n instead of an arbitrary-length DFT; trailing
// bits beyond the power-of-two boundary are ignored. The statistic is
// computed for the truncated length, so the test remains exact — it just
// examines slightly fewer bits.
//
// The n real +-1 samples are transformed as one n/2-point complex FFT of
// z_k = x_2k + i x_2k+1 followed by the real-input split step, in plain
// doubles held as separate real and imaginary arrays. Twiddles come from a
// table filled with std::cos/std::sin, one contiguous quarter wave per
// stage. The kernel yields |X_j|^2 for j < n/2, the test counts
// |X_j|^2 < T^2, and the p-value comes from sp800_22_detail.cpp like every
// other test's.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "stattests/sp800_22_detail.hpp"
#include "stattests/sp800_22_wordpar.hpp"

namespace trng::stat {

namespace {

/// Twiddles e^{-2 pi i j / L} = cos - i sin for j < L / 4, for every
/// power-of-two span L from 4 up to `max_span`, span L at offset L / 4 - 1
/// (half the entries of the span-2L level, stored again so that every stage
/// reads its twiddles contiguously). The other quarter of a span follows
/// from e^{-2 pi i (j + L/4) / L} = -i e^{-2 pi i j / L}.
struct Twiddles {
  std::size_t max_span = 0;
  std::vector<double> cos;
  std::vector<double> sin;

  const double* cos_at(std::size_t span) const { return &cos[span / 4 - 1]; }
  const double* sin_at(std::size_t span) const { return &sin[span / 4 - 1]; }
};

/// The table for the longest span requested so far, shared by every caller:
/// one table is kept, replaced only when a longer transform arrives, so the
/// cache never grows with the number of distinct lengths. Callers hold their
/// own reference, so a replacement never frees a table in use.
std::shared_ptr<const Twiddles> twiddles_for(std::size_t max_span) {
  static std::mutex mu;
  static std::shared_ptr<const Twiddles> table;
  const std::lock_guard<std::mutex> lock(mu);
  if (!table || table->max_span < max_span) {
    auto t = std::make_shared<Twiddles>();
    t->max_span = max_span;
    t->cos.resize(max_span / 2 - 1);
    t->sin.resize(max_span / 2 - 1);
    const double two_pi = 2.0 * std::acos(-1.0);
    for (std::size_t span = 4; span <= max_span; span *= 2) {
      for (std::size_t j = 0; j < span / 4; ++j) {
        const double angle =
            two_pi * static_cast<double>(j) / static_cast<double>(span);
        t->cos[span / 4 - 1 + j] = std::cos(angle);
        t->sin[span / 4 - 1 + j] = std::sin(angle);
      }
    }
    table = std::move(t);
  }
  return table;
}

/// Bit reversal of all 64 bits of x.
std::uint64_t reverse_bits(std::uint64_t x) {
  x = ((x >> 1) & 0x5555555555555555ULL) | ((x & 0x5555555555555555ULL) << 1);
  x = ((x >> 2) & 0x3333333333333333ULL) | ((x & 0x3333333333333333ULL) << 2);
  x = ((x >> 4) & 0x0F0F0F0F0F0F0F0FULL) | ((x & 0x0F0F0F0F0F0F0F0FULL) << 4);
  return __builtin_bswap64(x);
}

/// The 4-point DFT of (z_0, z_1, z_2, z_3), z_k = x_2k + i x_2k+1 with the
/// +-1 samples x_j = bit j of `v`, as four real parts then four imaginary
/// parts: the first two radix-2 stages for every quad of input bits.
struct Radix4Table {
  std::array<std::array<double, 8>, 256> out{};
  Radix4Table() {
    for (unsigned v = 0; v < 256; ++v) {
      auto x = [v](unsigned j) { return ((v >> j) & 1u) ? 1.0 : -1.0; };
      const double b0r = x(0) + x(4), b0i = x(1) + x(5);  // z_0 + z_2
      const double b1r = x(0) - x(4), b1i = x(1) - x(5);  // z_0 - z_2
      const double b2r = x(2) + x(6), b2i = x(3) + x(7);  // z_1 + z_3
      const double b3r = x(2) - x(6), b3i = x(3) - x(7);  // z_1 - z_3
      out[v] = {b0r + b2r, b1r + b3i, b0r - b2r, b1r - b3i,   // real
                b0i + b2i, b1i - b3r, b0i - b2i, b1i + b3r};  // imaginary
    }
  }
};

/// Writes the first two radix-2 stages of the m-point decimation-in-time
/// FFT (m = n / 2 >= 4) of z_k = x_2k + i x_2k+1, x = the +-1 image of the
/// first n bits. Output quad 4q..4q+3 is the 4-point DFT of z_r, z_r+m/4,
/// z_r+m/2, z_r+3m/4 with r the bit reversal of q, so the bit-reversal
/// permutation is a gather of four bit pairs from the packed words.
[[gnu::noinline]] void pack_radix4(const common::BitStream& bits,
                                   std::size_t n, double* re, double* im) {
  static const Radix4Table table;
  const std::uint64_t* words = bits.words().data();
  const std::size_t quads = n / 8;
  const int shift = 64 - std::countr_zero(quads);
  auto pair = [words](std::size_t p) {  // bits p, p+1 (p even)
    return static_cast<unsigned>(words[p >> 6] >> (p & 63)) & 3u;
  };
  for (std::size_t q = 0; q < quads; ++q) {
    const std::size_t r =
        shift == 64 ? 0 : static_cast<std::size_t>(reverse_bits(q) >> shift);
    const std::size_t p = 2 * r;
    const unsigned v = pair(p) | pair(p + n / 4) << 2 | pair(p + n / 2) << 4 |
                       pair(p + 3 * n / 4) << 6;
    const std::array<double, 8>& o = table.out[v];
    std::copy(o.begin(), o.begin() + 4, re + 4 * q);
    std::copy(o.begin() + 4, o.end(), im + 4 * q);
  }
}

/// `count` (even) radix-2 butterflies u_j, v_j = u_j + w_j v_j,
/// u_j - w_j v_j with w_j = wc_j - i ws_j, or -i times that when kRotate.
/// Kept out of line: with restrict-qualified, contiguous operands gcc -O2
/// runs two butterflies per SSE2 instruction, but inlined into the stage
/// loop the no-alias facts are lost and the code stays scalar.
template <bool kRotate>
[[gnu::noinline]] void butterflies(double* __restrict ur,
                                   double* __restrict ui,
                                   double* __restrict vr,
                                   double* __restrict vi,
                                   const double* __restrict wc,
                                   const double* __restrict ws,
                                   std::size_t count) {
  for (std::size_t j = 0; j < count; j += 2) {
    for (std::size_t h = j; h < j + 2; ++h) {
      const double xr = ur[h], xi = ui[h], yr = vr[h], yi = vi[h];
      const double tr = kRotate ? yi * wc[h] - yr * ws[h]
                                : yr * wc[h] + yi * ws[h];
      const double ti = kRotate ? -(yr * wc[h] + yi * ws[h])
                                : yi * wc[h] - yr * ws[h];
      ur[h] = xr + tr;
      ui[h] = xi + ti;
      vr[h] = xr - tr;
      vi[h] = xi - ti;
    }
  }
}

/// One radix-2 decimation-in-time stage of span `span` (>= 8) over
/// re/im[0, len): butterflies j, j + span/2 of each span-long run with
/// w = e^{-2 pi i j / span}.
[[gnu::noinline]] void dit_stage(double* re, double* im, std::size_t len,
                                 std::size_t span, const Twiddles& tw) {
  const std::size_t half = span / 2;
  const std::size_t quarter = span / 4;
  const double* c = tw.cos_at(span);
  const double* s = tw.sin_at(span);
  for (std::size_t base = 0; base < len; base += span) {
    double* ur = re + base;
    double* ui = im + base;
    butterflies<false>(ur, ui, ur + half, ui + half, c, s, quarter);
    butterflies<true>(ur + quarter, ui + quarter, ur + half + quarter,
                      ui + half + quarter, c, s, quarter);
  }
}

/// The m-point FFT (m >= 4, a power of two) of z, in place: the two packed
/// stages are done. Spans up to 2^15 run inside 2^15-point blocks (512 KiB,
/// within a level 2 cache), the longer spans over the whole array.
void fft_stages(double* re, double* im, std::size_t m, const Twiddles& tw) {
  const std::size_t block = std::min(m, std::size_t{1} << 15);
  for (std::size_t base = 0; base < m; base += block) {
    for (std::size_t span = 8; span <= block; span *= 2) {
      dit_stage(re + base, im + base, block, span, tw);
    }
  }
  for (std::size_t span = 2 * block; span <= m; span *= 2) {
    dit_stage(re, im, m, span, tw);
  }
}

/// Real-input split step: with Z the m-point FFT of z (m = n / 2),
/// X_k = E_k + W^k O_k and X_{m-k} = conj(E_k - W^k O_k), where
/// E_k = (Z_k + conj Z_{m-k}) / 2, O_k = -i (Z_k - conj Z_{m-k}) / 2 and
/// W = e^{-2 pi i / n}. W^k is the span-m twiddle of k / 2, times W for odd
/// k. Overwrites re[k] with |X_k|^2 for k < m.
[[gnu::noinline]] void split_power(double* re, const double* im,
                                   std::size_t m, const Twiddles& tw) {
  const double* c = tw.cos_at(m);
  const double* s = tw.sin_at(m);
  const double angle = std::acos(-1.0) / static_cast<double>(m);
  const double w1c = std::cos(angle), w1s = std::sin(angle);
  const double x0 = re[0] + im[0];
  const double mid = re[m / 2] * re[m / 2] + im[m / 2] * im[m / 2];
  for (std::size_t k = 1; k < m / 2; ++k) {
    const double ar = re[k], ai = im[k];
    const double br = re[m - k], bi = im[m - k];
    const double er = 0.5 * (ar + br), ei = 0.5 * (ai - bi);
    const double orr = 0.5 * (ai + bi), oi = 0.5 * (br - ar);
    double wc = c[k / 2], ws = s[k / 2];
    if (k & 1) {  // (wc - i ws)(w1c - i w1s)
      const double t = wc * w1c - ws * w1s;
      ws = wc * w1s + ws * w1c;
      wc = t;
    }
    const double pr = orr * wc + oi * ws;
    const double pi = oi * wc - orr * ws;
    re[k] = (er + pr) * (er + pr) + (ei + pi) * (ei + pi);
    re[m - k] = (er - pr) * (er - pr) + (ei - pi) * (ei - pi);
  }
  re[0] = x0 * x0;
  re[m / 2] = mid;
}

}  // namespace

namespace detail {

std::vector<double> dft_power_spectrum(const common::BitStream& bits) {
  if (bits.size() < 8) return {};
  std::size_t n = 8;
  while (n * 2 <= bits.size()) n *= 2;
  const std::size_t m = n / 2;
  const auto tw = twiddles_for(m);
  // Real parts in [0, m), imaginary parts in [m, 2m). One allocation, not
  // two halves: glibc's malloc then serves repeat calls from its heap
  // instead of mapping and faulting in fresh pages each time.
  std::vector<double> z(2 * m);
  double* re = z.data();
  double* im = re + m;
  pack_radix4(bits, n, re, im);
  fft_stages(re, im, m, *tw);
  split_power(re, im, m, *tw);
  z.resize(m);
  return z;
}

}  // namespace detail

namespace wordpar {

TestResult dft_test(const common::BitStream& bits) {
  if (auto gated = detail::gate_dft(bits.size())) return *gated;
  const auto power = detail::dft_power_spectrum(bits);
  const std::size_t n = 2 * power.size();
  // Section 2.6.4: T = sqrt(log(1/0.05) n), compared squared.
  const double t2 = std::log(1.0 / 0.05) * static_cast<double>(n);
  std::size_t below = 0;
  for (const double p : power) below += p < t2 ? 1 : 0;
  return detail::dft_from_counts(n, below);
}

}  // namespace wordpar

}  // namespace trng::stat
