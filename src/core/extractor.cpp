#include "core/extractor.hpp"

#include <bit>
#include <stdexcept>

namespace trng::core {

EntropyExtractor::EntropyExtractor(int m, int k) : m_(m), k_(k) {
  if (m < 2) {
    throw std::invalid_argument("EntropyExtractor: need m >= 2 taps");
  }
  if (k < 1 || k > m) {
    throw std::invalid_argument("EntropyExtractor: k must be in [1, m]");
  }
}

ExtractionResult EntropyExtractor::extract_packed(
    const sim::PackedCapture& capture) const {
  if (capture.lines < 1) {
    throw std::invalid_argument("EntropyExtractor: no line snapshots");
  }
  if (capture.taps != m_) {
    throw std::invalid_argument(
        "EntropyExtractor: snapshot width != configured m");
  }
  ExtractionResult r;
  const std::size_t nwords = static_cast<std::size_t>(capture.words_per_line);
  // Lazily XOR-fold one word of all lines at a time: the first edge is
  // almost always in the first word, so later words are rarely touched.
  auto folded_word = [&](std::size_t w) {
    std::uint64_t x = 0;
    for (int i = 0; i < capture.lines; ++i) x ^= capture.line(i)[w];
    return x;
  };
  std::uint64_t cur = folded_word(0);
  for (std::size_t w = 0; w < nwords; ++w) {
    const std::uint64_t next = (w + 1 < nwords) ? folded_word(w + 1) : 0;
    // Bit b of `e` marks a transition between taps 64w+b and 64w+b+1.
    std::uint64_t e = cur ^ ((cur >> 1) | ((next & 1ULL) << 63));
    // Keep only valid edge positions j with j + 1 < m.
    const std::size_t base = w * 64;
    const std::size_t pairs = static_cast<std::size_t>(m_) - 1;
    if (pairs < base + 64) {
      const std::size_t valid = pairs > base ? pairs - base : 0;
      e &= valid == 0 ? 0ULL : (~0ULL >> (64 - valid));
    }
    if (e != 0) {
      const int j = static_cast<int>(base) + std::countr_zero(e);
      r.edge_found = true;
      r.edge_position = j;
      const int binned = j / k_;
      r.bit = (binned & 1) != 0;
      return r;
    }
    cur = next;
  }
  return r;
}

}  // namespace trng::core
