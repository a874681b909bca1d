// Strong count types for the two denominations the packed datapath deals
// in: bits and 64-bit words.
//
// The batched BitSource contract moves entropy as packed words but sizes
// requests in bits, so every interface that touches both carries a silent
// factor-of-64 hazard: passing a word count where a bit count is expected
// truncates 98.4% of a request, and the reverse overflows buffers. The
// paper's entropy claims (Eq. 3-5) hold only if extraction is exact, and
// exactness starts with never miscounting what was extracted. `Bits` and
// `Words` make the denomination part of the type: construction is
// explicit, cross-denomination arithmetic does not compile, and the only
// ways across are the named, checked conversions below (enforced
// repo-wide by the semantic analyzer's SA002 rule).
//
// Both types are thin wrappers over std::uint64_t — passing them by value
// costs exactly what passing the raw integer did.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>

namespace trng::common {

/// Count of single bits. Explicitly constructed, explicitly unwrapped
/// (`count()`); supports same-type arithmetic and comparison only.
class Bits {
 public:
  constexpr Bits() = default;
  constexpr explicit Bits(std::uint64_t n) : n_(n) {}

  /// The raw count. Unwrapping is deliberate and visible at call sites:
  /// SA002 treats the result as a bit-denominated raw integer.
  [[nodiscard]] constexpr std::uint64_t count() const { return n_; }

  [[nodiscard]] constexpr bool is_zero() const { return n_ == 0; }

  friend constexpr bool operator==(Bits, Bits) = default;
  friend constexpr auto operator<=>(Bits a, Bits b) {
    return a.n_ <=> b.n_;
  }

  friend constexpr Bits operator+(Bits a, Bits b) { return Bits(a.n_ + b.n_); }
  friend constexpr Bits operator-(Bits a, Bits b) {
    if (b.n_ > a.n_) {
      throw std::underflow_error("Bits: subtraction would underflow");
    }
    return Bits(a.n_ - b.n_);
  }
  /// Scaling by a dimensionless factor (e.g. XOR compression's np).
  friend constexpr Bits operator*(Bits a, std::uint64_t k) {
    if (k != 0 && a.n_ > std::numeric_limits<std::uint64_t>::max() / k) {
      throw std::overflow_error("Bits: multiplication would overflow");
    }
    return Bits(a.n_ * k);
  }
  friend constexpr Bits operator*(std::uint64_t k, Bits a) { return a * k; }

  constexpr Bits& operator+=(Bits o) { n_ += o.n_; return *this; }
  constexpr Bits& operator-=(Bits o) { *this = *this - o; return *this; }

 private:
  std::uint64_t n_ = 0;
};

/// Count of packed 64-bit words (the BitSource / WordRing transfer unit).
class Words {
 public:
  constexpr Words() = default;
  constexpr explicit Words(std::uint64_t n) : n_(n) {}

  [[nodiscard]] constexpr std::uint64_t count() const { return n_; }

  [[nodiscard]] constexpr bool is_zero() const { return n_ == 0; }

  friend constexpr bool operator==(Words, Words) = default;
  friend constexpr auto operator<=>(Words a, Words b) {
    return a.n_ <=> b.n_;
  }

  friend constexpr Words operator+(Words a, Words b) {
    return Words(a.n_ + b.n_);
  }
  friend constexpr Words operator-(Words a, Words b) {
    if (b.n_ > a.n_) {
      throw std::underflow_error("Words: subtraction would underflow");
    }
    return Words(a.n_ - b.n_);
  }
  friend constexpr Words operator*(Words a, std::uint64_t k) {
    if (k != 0 && a.n_ > std::numeric_limits<std::uint64_t>::max() / k) {
      throw std::overflow_error("Words: multiplication would overflow");
    }
    return Words(a.n_ * k);
  }
  friend constexpr Words operator*(std::uint64_t k, Words a) { return a * k; }

  constexpr Words& operator+=(Words o) { n_ += o.n_; return *this; }
  constexpr Words& operator-=(Words o) { *this = *this - o; return *this; }

 private:
  std::uint64_t n_ = 0;
};

/// Words needed to hold `b` bits: ceil(b / 64). The canonical "size my
/// packed buffer" conversion; never lossy.
[[nodiscard]] constexpr Words bits_to_words(Bits b) {
  return Words(b.count() / 64 + (b.count() % 64 != 0 ? 1 : 0));
}

/// Bit capacity of `w` words: w * 64, overflow-checked (counts above
/// 2^58 words cannot be expressed in bits).
[[nodiscard]] constexpr Bits words_to_bits(Words w) {
  if (w.count() > std::numeric_limits<std::uint64_t>::max() / 64) {
    throw std::overflow_error("words_to_bits: bit count would overflow");
  }
  return Bits(w.count() * 64);
}

/// Index of the word containing bit `b` (floor division — distinct from
/// bits_to_words, which is a ceiling capacity).
[[nodiscard]] constexpr Words word_index(Bits b) {
  return Words(b.count() / 64);
}

/// Position of bit `b` within its word (0..63).
[[nodiscard]] constexpr unsigned bit_offset(Bits b) {
  return static_cast<unsigned>(b.count() % 64);
}

}  // namespace trng::common
