// SHA-256 block function on the x86 SHA extensions. Built only for x86-64
// targets; every function that uses SHA or SSE4.1 instructions carries the
// target attribute, so the rest of the library keeps the baseline ISA and
// sha256_block::dispatched() calls sha_ni only after cpuid has vouched for it.
#include <cpuid.h>
#include <immintrin.h>

#include "server/sha256_block.hpp"

#define TRNG_SHA_NI_TARGET __attribute__((target("sha,sse4.1")))

namespace trng::server::sha256_block {
namespace {

/// Four rounds, t = 4*quad .. 4*quad+3, on message words w[t..t+3]. The
/// state is split as the instructions want it: abef = (a, b, e, f) and
/// cdgh = (c, d, g, h), highest lane first.
TRNG_SHA_NI_TARGET inline void four_rounds(__m128i& abef, __m128i& cdgh,
                                           __m128i w, int quad) {
  __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(
             reinterpret_cast<const __m128i*>(kRoundConstants + 4 * quad)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  wk = _mm_shuffle_epi32(wk, 0x0e);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
}

/// Message schedule: w[t..t+3] from w4 = w[t-16..t-13], w3 = w[t-12..t-9],
/// w2 = w[t-8..t-5] and w1 = w[t-4..t-1].
TRNG_SHA_NI_TARGET inline __m128i schedule(__m128i w4, __m128i w3, __m128i w2,
                                           __m128i w1) {
  const __m128i t7 = _mm_alignr_epi8(w1, w2, 4);  // w[t-7..t-4]
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(_mm_sha256msg1_epu32(w4, w3), t7), w1);
}

}  // namespace

TRNG_SHA_NI_TARGET void sha_ni(std::uint32_t state[8],
                               const std::uint8_t block[64]) {
  // Big-endian message words; and state[] = (a..d, e..h) to ABEF / CDGH.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  __m128i w0 = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block)), bswap);
  __m128i w1 = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16)), bswap);
  __m128i w2 = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 32)), bswap);
  __m128i w3 = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 48)), bswap);
  four_rounds(abef, cdgh, w0, 0);
  four_rounds(abef, cdgh, w1, 1);
  four_rounds(abef, cdgh, w2, 2);
  four_rounds(abef, cdgh, w3, 3);
  for (int quad = 4; quad < 16; quad += 4) {
    w0 = schedule(w0, w1, w2, w3);
    four_rounds(abef, cdgh, w0, quad);
    w1 = schedule(w1, w2, w3, w0);
    four_rounds(abef, cdgh, w1, quad + 1);
    w2 = schedule(w2, w3, w0, w1);
    four_rounds(abef, cdgh, w2, quad + 2);
    w3 = schedule(w3, w0, w1, w2);
    four_rounds(abef, cdgh, w3, quad + 3);
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

const char* sha_ni_missing_feature() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return "cpuid leaf 1";
  if ((ecx & bit_SSSE3) == 0) return "SSSE3";
  if ((ecx & bit_SSE4_1) == 0) return "SSE4.1";
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) {
    return "cpuid leaf 7";
  }
  if ((ebx & bit_SHA) == 0) return "SHA";
  return nullptr;
}

}  // namespace trng::server::sha256_block
