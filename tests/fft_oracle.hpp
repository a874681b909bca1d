// Radix-2 FFT behind the spectral test, used only by tests.
//
// src/stattests/sp800_22_dft.cpp runs the transform as a packed first two
// stages, radix-4 steps and an occasional lone span-8 stage, with twiddles
// from a shared quarter-wave table. The code below is the plain textbook
// path to the same numbers: a bit-reversal permutation of
// z_k = x_2k + i x_2k+1, one radix-2 decimation-in-time stage per span with
// every twiddle taken from std::cos/std::sin, and the same real-input split
// step. tests/test_battery_equivalence.cpp compares the two at full test
// lengths, and both against a naive O(n^2) DFT at short ones.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/bitstream.hpp"

namespace trng::stat::oracle {

/// `count` radix-2 butterflies u_j, v_j = u_j + w_j v_j, u_j - w_j v_j with
/// w_j = wc_j - i ws_j.
inline void butterflies(double* ur, double* ui, double* vr, double* vi,
                        const double* wc, const double* ws,
                        std::size_t count) {
  for (std::size_t h = 0; h < count; ++h) {
    const double xr = ur[h], xi = ui[h], yr = vr[h], yi = vi[h];
    const double tr = yr * wc[h] + yi * ws[h];
    const double ti = yi * wc[h] - yr * ws[h];
    ur[h] = xr + tr;
    ui[h] = xi + ti;
    vr[h] = xr - tr;
    vi[h] = xi - ti;
  }
}

/// One radix-2 decimation-in-time stage of span `span` (>= 2) over
/// re/im[0, len): butterflies j, j + span/2 of each span-long run with
/// w = e^{-2 pi i j / span}.
inline void dit_stage(double* re, double* im, std::size_t len,
                      std::size_t span) {
  const std::size_t half = span / 2;
  const double two_pi = 2.0 * std::acos(-1.0);
  std::vector<double> wc(half), ws(half);
  for (std::size_t j = 0; j < half; ++j) {
    const double angle =
        two_pi * static_cast<double>(j) / static_cast<double>(span);
    wc[j] = std::cos(angle);
    ws[j] = std::sin(angle);
  }
  for (std::size_t base = 0; base < len; base += span) {
    butterflies(re + base, im + base, re + base + half, im + base + half,
                wc.data(), ws.data(), half);
  }
}

/// |X_j|^2 for j < n / 2, X = the DFT of the +-1 image of the largest
/// power-of-two prefix of `bits` (length n >= 4).
inline std::vector<double> dft_power_radix2(const common::BitStream& bits) {
  const std::size_t n = std::bit_floor(bits.size());
  const std::size_t m = n / 2;
  const int log_m = std::countr_zero(m);
  std::vector<double> re(m), im(m);
  for (std::size_t k = 0; k < m; ++k) {
    std::size_t r = 0;  // k with its log_m bits reversed
    for (int b = 0; b < log_m; ++b) r |= ((k >> b) & 1u) << (log_m - 1 - b);
    re[r] = bits[2 * k] ? 1.0 : -1.0;
    im[r] = bits[2 * k + 1] ? 1.0 : -1.0;
  }
  for (std::size_t span = 2; span <= m; span *= 2) {
    dit_stage(re.data(), im.data(), m, span);
  }
  // Split step: X_k = E_k + W^k O_k, X_{m-k} = conj(E_k - W^k O_k) with
  // E_k = (Z_k + conj Z_{m-k}) / 2, O_k = -i (Z_k - conj Z_{m-k}) / 2 and
  // W = e^{-2 pi i / n}.
  std::vector<double> power(m);
  const double x0 = re[0] + im[0];
  power[0] = x0 * x0;
  if (m >= 2) power[m / 2] = re[m / 2] * re[m / 2] + im[m / 2] * im[m / 2];
  const double pi = std::acos(-1.0);
  for (std::size_t k = 1; k < m / 2; ++k) {
    const double er = 0.5 * (re[k] + re[m - k]);
    const double ei = 0.5 * (im[k] - im[m - k]);
    const double orr = 0.5 * (im[k] + im[m - k]);
    const double oi = 0.5 * (re[m - k] - re[k]);
    const double angle =
        pi * static_cast<double>(k) / static_cast<double>(m);
    const double wc = std::cos(angle), ws = std::sin(angle);
    const double pr = orr * wc + oi * ws;
    const double pim = oi * wc - orr * ws;
    power[k] = (er + pr) * (er + pr) + (ei + pim) * (ei + pim);
    power[m - k] = (er - pr) * (er - pr) + (ei - pim) * (ei - pim);
  }
  return power;
}

}  // namespace trng::stat::oracle
