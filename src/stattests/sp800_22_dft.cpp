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
// doubles held as separate real and imaginary arrays. The packing does the
// first two radix-2 stages, the rest run as cache-blocked radix-4 steps
// (two stages per pass over the data). Twiddles come from one shared table
// of quarter waves filled with std::cos/std::sin; a radix-4 step reads w
// there and forms w^2 and w^3 itself. The split step counts |X_j|^2 < T^2
// for j < n/2 as it forms them, and the p-value comes from
// sp800_22_detail.cpp like every other test's.
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

/// Points per block of the cache-blocked FFT steps: 2^11 (32 KiB of real
/// and imaginary parts, within a level 1 cache) and 2^15 (512 KiB, level 2).
constexpr std::size_t kLevel1Points = std::size_t{1} << 11;
constexpr std::size_t kLevel2Points = std::size_t{1} << 15;

/// Twiddles e^{-2 pi i j / L} = cos - i sin for j < L / 4, for every
/// power-of-two span L from 4 up to `max_span`. The other quarter of a span
/// follows from e^{-2 pi i (j + L/4) / L} = -i e^{-2 pi i j / L}. Spans up
/// to kLevel2Points, the ones the cache-blocked steps use, get one
/// contiguous level each, span L at offset L / 4 - 1 (half the entries of
/// the span-2L level, stored again so that those steps read their
/// twiddles contiguously). The level of `max_span` follows them, and a span between
/// the two reads every (max_span / L)-th entry of it, so the table holds
/// about max_span / 4 entries rather than max_span / 2.
struct Twiddles {
  std::size_t max_span = 0;
  std::vector<double> cos;
  std::vector<double> sin;

  /// Entries of the contiguous levels: spans 4 .. min(max_span, 2^15).
  std::size_t dense_size() const {
    return std::min(max_span, kLevel2Points) / 2 - 1;
  }
  std::size_t offset(std::size_t span) const {
    return span <= kLevel2Points ? span / 4 - 1 : dense_size();
  }
  /// Distance between consecutive twiddles of span `span`.
  std::size_t stride(std::size_t span) const {
    return span <= kLevel2Points ? 1 : max_span / span;
  }
  const double* cos_at(std::size_t span) const { return &cos[offset(span)]; }
  const double* sin_at(std::size_t span) const { return &sin[offset(span)]; }
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
    const std::size_t size =
        t->dense_size() + (max_span > kLevel2Points ? max_span / 4 : 0);
    t->cos.resize(size);
    t->sin.resize(size);
    const double two_pi = 2.0 * std::acos(-1.0);
    for (std::size_t span = 4; span <= max_span; span *= 2) {
      if (span > kLevel2Points && span < max_span) continue;
      for (std::size_t j = 0; j < span / 4; ++j) {
        const double angle =
            two_pi * static_cast<double>(j) / static_cast<double>(span);
        t->cos[t->offset(span) + j] = std::cos(angle);
        t->sin[t->offset(span) + j] = std::sin(angle);
      }
    }
    table = std::move(t);
  }
  return table;
}

/// The transform buffer of the last finished call, kept for the next one:
/// at 2^20 bits it is 8 MiB, and an allocator that maps blocks that large
/// straight from the kernel (glibc past its mmap threshold) would
/// otherwise fault in and zero 2048 fresh pages on every call. One buffer
/// is kept, shared by all threads: a call that finds the slot empty or
/// holding another length allocates its own, and a finished call's buffer
/// replaces whatever the slot holds.
class BufferSlot {
 public:
  std::unique_ptr<double[]> take(std::size_t size) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (buf_ && size_ == size) return std::move(buf_);
    }
    return std::make_unique_for_overwrite<double[]>(size);
  }

  void put(std::unique_ptr<double[]> buf, std::size_t size) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::swap(buf_, buf);  // the displaced buffer is freed after unlocking
    size_ = size;
  }

 private:
  std::mutex mu_;
  std::unique_ptr<double[]> buf_;
  std::size_t size_ = 0;
};

BufferSlot& buffer_slot() {
  static BufferSlot slot;
  return slot;
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

/// Writes points [begin, end) (multiples of 8) of the first two radix-2
/// stages of the m-point decimation-in-time FFT (m = n / 2 >= 4) of
/// z_k = x_2k + i x_2k+1, x = the +-1 image of the first n bits, and with
/// kSpan8 the span-8 stage too. Output quad 4q..4q+3 of the two stages is
/// the 4-point DFT of z_r, z_r+m/4, z_r+m/2, z_r+3m/4 with r the bit
/// reversal of q, so the bit-reversal permutation is a gather of four bit
/// pairs from the packed words. The span-8 stage, used when the number of
/// stages after these two is odd, combines quads 2p and 2p + 1 with the
/// constant twiddles w_j = e^{-2 pi i j / 8} before they are stored.
template <bool kSpan8>
[[gnu::noinline]] void pack_radix4(const common::BitStream& bits,
                                   std::size_t n, std::size_t begin,
                                   std::size_t end, double* re, double* im) {
  static const Radix4Table table;
  const std::uint64_t* words = bits.words().data();
  const int shift = 64 - std::countr_zero(n / 8);
  auto pair = [words](std::size_t p) {  // bits p, p+1 (p even)
    return static_cast<unsigned>(words[p >> 6] >> (p & 63)) & 3u;
  };
  auto quad = [&](std::size_t q) -> const std::array<double, 8>& {
    const std::size_t r =
        shift == 64 ? 0 : static_cast<std::size_t>(reverse_bits(q) >> shift);
    const std::size_t p = 2 * r;
    return table.out[pair(p) | pair(p + n / 4) << 2 | pair(p + n / 2) << 4 |
                     pair(p + 3 * n / 4) << 6];
  };
  if constexpr (!kSpan8) {
    for (std::size_t q = begin / 4; q < end / 4; ++q) {
      const std::array<double, 8>& o = quad(q);
      std::copy(o.begin(), o.begin() + 4, re + 4 * q);
      std::copy(o.begin() + 4, o.end(), im + 4 * q);
    }
  } else {
    const double h = std::sqrt(0.5);
    for (std::size_t q = begin / 4; q < end / 4; q += 2) {
      const std::array<double, 8>& u = quad(q);  // re 0..3, im 4..7
      const std::array<double, 8>& v = quad(q + 1);
      // t_j = w_j v_j: w_0 = 1, w_1 = h - i h, w_2 = -i, w_3 = -h - i h.
      const double tr[4] = {v[0], h * (v[1] + v[5]), v[6], h * (v[7] - v[3])};
      const double ti[4] = {v[4], h * (v[5] - v[1]), -v[2], -h * (v[3] + v[7])};
      double* xr = re + 4 * q;
      double* xi = im + 4 * q;
      for (unsigned j = 0; j < 4; ++j) {
        xr[j] = u[j] + tr[j];
        xi[j] = u[4 + j] + ti[j];
        xr[j + 4] = u[j] - tr[j];
        xi[j + 4] = u[4 + j] - ti[j];
      }
    }
  }
}

/// `count` (even) radix-4 decimation-in-time butterflies: a, b, c, d are
/// the four length-count sub-transforms of one span-4count run, replaced
/// by its outputs j, j + count, j + 2count and j + 3count. With w the
/// span's twiddle wc_j - i ws_j, and w^2 and w^3 formed from it,
///   X_j        = (a + w^2 b) + (w c + w^3 d)
///   X_j+2count = (a + w^2 b) - (w c + w^3 d)
///   X_j+count  = (a - w^2 b) - i (w c - w^3 d)
///   X_j+3count = (a - w^2 b) + i (w c - w^3 d),
/// the two radix-2 stages of spans 2count and 4count in one pass. Kept out
/// of line: with restrict-qualified, contiguous operands gcc -O2 runs two
/// butterflies per SSE2 instruction, but inlined into the stage loop the
/// no-alias facts are lost and the code stays scalar.
[[gnu::noinline]] void radix4_butterflies(
    double* __restrict ar, double* __restrict ai, double* __restrict br,
    double* __restrict bi, double* __restrict cr, double* __restrict ci,
    double* __restrict dr, double* __restrict di,
    const double* __restrict wc, const double* __restrict ws,
    std::size_t count) {
  for (std::size_t j = 0; j < count; j += 2) {
    for (std::size_t h = j; h < j + 2; ++h) {
      const double c1 = wc[h], s1 = ws[h];
      const double c2 = c1 * c1 - s1 * s1, s2 = 2.0 * c1 * s1;
      const double c3 = c2 * c1 - s2 * s1, s3 = c2 * s1 + s2 * c1;
      // (x_r + i x_i)(c - i s) = (x_r c + x_i s) + i (x_i c - x_r s)
      const double pr = br[h] * c2 + bi[h] * s2;
      const double pi = bi[h] * c2 - br[h] * s2;
      const double qr = cr[h] * c1 + ci[h] * s1;
      const double qi = ci[h] * c1 - cr[h] * s1;
      const double tr = dr[h] * c3 + di[h] * s3;
      const double ti = di[h] * c3 - dr[h] * s3;
      const double e0r = ar[h] + pr, e0i = ai[h] + pi;
      const double e1r = ar[h] - pr, e1i = ai[h] - pi;
      const double o0r = qr + tr, o0i = qi + ti;
      const double o1r = qr - tr, o1i = qi - ti;
      ar[h] = e0r + o0r;
      ai[h] = e0i + o0i;
      cr[h] = e0r - o0r;
      ci[h] = e0i - o0i;
      br[h] = e1r + o1i;
      bi[h] = e1i - o1r;
      dr[h] = e1r - o1i;
      di[h] = e1i + o1r;
    }
  }
}

/// The radix-2 stages of spans `span` and 2 `span` (>= 8) over
/// re/im[0, len) as one radix-4 step: each 2span-long run combines its four
/// quarter-length transforms with the span-2span twiddles.
[[gnu::noinline]] void radix4_stage(double* re, double* im, std::size_t len,
                                    std::size_t span, const Twiddles& tw) {
  const std::size_t q = span / 2;
  const double* c = tw.cos_at(2 * span);
  const double* s = tw.sin_at(2 * span);
  for (std::size_t base = 0; base < len; base += 2 * span) {
    double* r = re + base;
    double* i = im + base;
    radix4_butterflies(r, i, r + q, i + q, r + 2 * q, i + 2 * q, r + 3 * q,
                       i + 3 * q, c, s, q);
  }
}

/// The radix-4 steps of spans `span`, 4 `span`, ... < m over the whole
/// array (`span` / 2 >= kColumns): every step of these moves data only
/// between points congruent mod `span` / 2, so they run together on one
/// group of kColumns such residues at a time, which stays in a level 2
/// cache, and each point travels from memory and back once. Twiddles of a
/// strided span are gathered into a contiguous run first.
void outer_steps(double* re, double* im, std::size_t m, std::size_t span,
                 const Twiddles& tw) {
  constexpr std::size_t kColumns = 256;
  std::array<double, kColumns> gathered_c{}, gathered_s{};
  const std::size_t width = span / 2;
  for (std::size_t col = 0; col < width; col += kColumns) {
    for (std::size_t l = span; l < m; l *= 4) {
      const std::size_t q = l / 2;
      const std::size_t stride = tw.stride(2 * l);
      const double* c = tw.cos_at(2 * l);
      const double* s = tw.sin_at(2 * l);
      for (std::size_t j = col; j < q; j += width) {
        const double* wc = c + j;
        const double* ws = s + j;
        if (stride != 1) {
          for (std::size_t t = 0; t < kColumns; ++t) {
            gathered_c[t] = c[(j + t) * stride];
            gathered_s[t] = s[(j + t) * stride];
          }
          wc = gathered_c.data();
          ws = gathered_s.data();
        }
        for (std::size_t base = 0; base < m; base += 2 * l) {
          double* r = re + base + j;
          double* i = im + base + j;
          radix4_butterflies(r, i, r + q, i + q, r + 2 * q, i + 2 * q,
                             r + 3 * q, i + 3 * q, wc, ws, kColumns);
        }
      }
    }
  }
}

/// The m-point FFT (m = n / 2 >= 4) of z_k = x_2k + i x_2k+1, x = the +-1
/// image of the first n bits, into re/im. After the two packed stages,
/// spans 8 .. m remain; when their count is odd the packing does the
/// span-8 stage as well, and the rest go two at a time as radix-4 steps.
/// Each level 1 block is packed and takes every step whose runs fit it;
/// each level 2 block then takes the steps whose runs fit that, and the
/// longer steps run in outer_steps.
void fft(const common::BitStream& bits, std::size_t n, double* re,
         double* im, const Twiddles& tw) {
  const std::size_t m = n / 2;
  const bool odd = std::countr_zero(m) % 2 == 1;  // log2(m) - 2 stages left
  const std::size_t first = odd ? 16 : 8;  // the first radix-4 step's span
  const std::size_t block1 = std::min(m, kLevel1Points);
  const std::size_t block2 = std::min(m, kLevel2Points);
  std::size_t span = first;
  for (std::size_t base2 = 0; base2 < m; base2 += block2) {
    for (std::size_t base = base2; base < base2 + block2; base += block1) {
      if (odd) {
        pack_radix4<true>(bits, n, base, base + block1, re, im);
      } else {
        pack_radix4<false>(bits, n, base, base + block1, re, im);
      }
      for (span = first; 2 * span <= block1; span *= 4) {
        radix4_stage(re + base, im + base, block1, span, tw);
      }
    }
    for (; 2 * span <= block2; span *= 4) {
      radix4_stage(re + base2, im + base2, block2, span, tw);
    }
  }
  if (span < m) outer_steps(re, im, m, span, tw);
}

/// Real-input split step: with Z the m-point FFT of z (m = n / 2),
/// X_k = E_k + W^k O_k and X_{m-k} = conj(E_k - W^k O_k), where
/// E_k = (Z_k + conj Z_{m-k}) / 2, O_k = -i (Z_k - conj Z_{m-k}) / 2 and
/// W = e^{-2 pi i / n}. W^k is the span-m twiddle of k / 2, times W for odd
/// k. Returns the number of k < m with |X_k|^2 < t2 and, when `power` is
/// not null, stores |X_k|^2 in power[k].
[[gnu::noinline]] std::size_t split_count(const double* re, const double* im,
                                          std::size_t m, const Twiddles& tw,
                                          double t2, double* power) {
  const double* c = tw.cos_at(m);
  const double* s = tw.sin_at(m);
  const std::size_t stride = tw.stride(m);
  const double angle = std::acos(-1.0) / static_cast<double>(m);
  const double w1c = std::cos(angle), w1s = std::sin(angle);
  const double x0 = re[0] + im[0];
  const double p0 = x0 * x0;
  const double pmid = re[m / 2] * re[m / 2] + im[m / 2] * im[m / 2];
  std::size_t below = (p0 < t2 ? 1 : 0) + (pmid < t2 ? 1 : 0);
  if (power != nullptr) {
    power[0] = p0;
    power[m / 2] = pmid;
  }
  for (std::size_t k = 1; k < m / 2; ++k) {
    const double ar = re[k], ai = im[k];
    const double br = re[m - k], bi = im[m - k];
    const double er = 0.5 * (ar + br), ei = 0.5 * (ai - bi);
    const double orr = 0.5 * (ai + bi), oi = 0.5 * (br - ar);
    double wc = c[k / 2 * stride], ws = s[k / 2 * stride];
    if (k & 1) {  // (wc - i ws)(w1c - i w1s)
      const double t = wc * w1c - ws * w1s;
      ws = wc * w1s + ws * w1c;
      wc = t;
    }
    const double pr = orr * wc + oi * ws;
    const double pi = oi * wc - orr * ws;
    const double lo = (er + pr) * (er + pr) + (ei + pi) * (ei + pi);
    const double hi = (er - pr) * (er - pr) + (ei - pi) * (ei - pi);
    below += (lo < t2 ? 1 : 0) + (hi < t2 ? 1 : 0);
    if (power != nullptr) {
      power[k] = lo;
      power[m - k] = hi;
    }
  }
  return below;
}

}  // namespace

namespace detail {

std::size_t dft_count_below(const common::BitStream& bits, double t2,
                            std::vector<double>* power) {
  if (bits.size() < 8) {
    if (power != nullptr) power->clear();
    return 0;
  }
  const std::size_t n = std::bit_floor(bits.size());
  const std::size_t m = n / 2;
  const auto tw = twiddles_for(m);
  // Real parts in [0, m), imaginary parts in [m, 2m), every entry written
  // by pack_radix4 before it is read, so a reused buffer needs no clearing.
  auto z = buffer_slot().take(2 * m);
  double* re = z.get();
  double* im = re + m;
  fft(bits, n, re, im, *tw);
  if (power != nullptr) power->resize(m);
  const std::size_t below = split_count(
      re, im, m, *tw, t2, power != nullptr ? power->data() : nullptr);
  buffer_slot().put(std::move(z), 2 * m);
  return below;
}

}  // namespace detail

namespace wordpar {

TestResult dft_test(const common::BitStream& bits) {
  if (auto gated = detail::gate_dft(bits.size())) return *gated;
  const std::size_t n = std::bit_floor(bits.size());
  // Section 2.6.4: T = sqrt(log(1/0.05) n), compared squared.
  const double t2 = std::log(1.0 / 0.05) * static_cast<double>(n);
  return detail::dft_from_counts(n, detail::dft_count_below(bits, t2));
}

}  // namespace wordpar

}  // namespace trng::stat
