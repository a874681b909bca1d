#include "common/bitstream.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <vector>

namespace trng::common {

BitStream BitStream::from_string(const std::string& bits) {
  BitStream bs;
  bs.reserve(bits.size());
  for (char c : bits) {
    if (c == '0') {
      bs.push_back(false);
    } else if (c == '1') {
      bs.push_back(true);
    } else {
      throw std::invalid_argument(
          "BitStream::from_string: expected only '0'/'1'");
    }
  }
  return bs;
}

BitStream BitStream::adopt_words(std::vector<std::uint64_t> words,
                                 std::size_t nbits) {
  if (nbits > kMaxBits || words.size() != (nbits + 63) / 64) {
    throw std::invalid_argument(
        "BitStream::adopt_words: need (nbits + 63) / 64 words");
  }
  BitStream bs;
  bs.words_ = std::move(words);
  bs.size_ = nbits;
  const unsigned tail = static_cast<unsigned>(nbits & 63);
  if (tail != 0) bs.words_.back() &= ~0ULL >> (64 - tail);
  return bs;
}

void BitStream::push_back(bool bit) {
  const std::size_t word = size_ >> 6;
  if (word == words_.size()) words_.push_back(0);
  if (bit) words_[word] |= 1ULL << (size_ & 63);
  ++size_;
}

void BitStream::append_bits(std::uint64_t value, unsigned count) {
  if (count > 64) {
    throw std::invalid_argument("BitStream::append_bits: count > 64");
  }
  // append_words ignores bits above `count`, so the word-writer handles
  // the masking and tail maintenance.
  append_words(&value, count);
}

void BitStream::append_words(const std::uint64_t* words, std::size_t nbits) {
  if (nbits == 0) return;
  if (nbits > kMaxBits - size_) {
    throw std::length_error("BitStream::append_words: size overflow");
  }
  const std::size_t nwords = (nbits + 63) / 64;
  const unsigned shift = static_cast<unsigned>(size_ & 63);
  if (shift == 0) {
    words_.insert(words_.end(), words, words + nwords);
  } else {
    // Splice each incoming word across the partially-filled tail word.
    words_.reserve((size_ + nbits + 63) / 64);
    for (std::size_t w = 0; w < nwords; ++w) {
      words_.back() |= words[w] << shift;
      words_.push_back(words[w] >> (64 - shift));
    }
  }
  size_ += nbits;
  // Drop any spilled word and clear bits above `nbits` in the final input
  // word so that the tail-bits-are-zero invariant holds even when the
  // caller's buffer has garbage past nbits.
  words_.resize((size_ + 63) / 64);
  const unsigned tail = static_cast<unsigned>(size_ & 63);
  if (tail != 0) words_.back() &= ~0ULL >> (64 - tail);
}

void BitStream::append(const BitStream& other) {
  // Fast path when this stream is word-aligned.
  if ((size_ & 63) == 0) {
    words_.insert(words_.end(), other.words_.begin(), other.words_.end());
    size_ += other.size_;
    return;
  }
  for (std::size_t i = 0; i < other.size_; ++i) push_back(other[i]);
}

bool BitStream::at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("BitStream::at: index out of range");
  return (*this)[i];
}

void BitStream::clear() {
  words_.clear();
  size_ = 0;
}

void BitStream::reserve(std::size_t bits) {
  if (bits > kMaxBits) {
    throw std::length_error("BitStream::reserve: size overflow");
  }
  words_.reserve((bits + 63) / 64);
}

std::size_t BitStream::count_ones() const {
  std::size_t ones = 0;
  for (std::uint64_t w : words_) ones += static_cast<std::size_t>(std::popcount(w));
  return ones;
}

std::size_t BitStream::count_ones(std::size_t begin,
                                  std::size_t length) const {
  if (begin > size_ || length > size_ - begin) {
    throw std::out_of_range("BitStream::count_ones: range out of bounds");
  }
  if (length == 0) return 0;
  const std::size_t first = begin >> 6;
  const std::size_t last = (begin + length - 1) >> 6;
  const unsigned head = static_cast<unsigned>(begin & 63);
  std::size_t ones = 0;
  if (first == last) {
    const std::uint64_t mask = (~0ULL >> (64 - length)) << head;
    return static_cast<std::size_t>(std::popcount(words_[first] & mask));
  }
  ones += static_cast<std::size_t>(std::popcount(words_[first] >> head));
  for (std::size_t w = first + 1; w < last; ++w) {
    ones += static_cast<std::size_t>(std::popcount(words_[w]));
  }
  const unsigned tail = static_cast<unsigned>((begin + length - 1) & 63) + 1;
  ones += static_cast<std::size_t>(
      std::popcount(words_[last] & (~0ULL >> (64 - tail))));
  return ones;
}

std::uint64_t BitStream::word_at(std::size_t begin) const {
  const std::size_t k = begin >> 6;
  const unsigned off = static_cast<unsigned>(begin & 63);
  const std::uint64_t lo = k < words_.size() ? words_[k] : 0;
  const std::uint64_t hi = k + 1 < words_.size() ? words_[k + 1] : 0;
  // (hi << 1) << (63 - off) == hi << (64 - off) without the off == 0
  // undefined shift-by-64.
  return (lo >> off) | ((hi << 1) << (63 - off));
}

BitStream BitStream::slice(std::size_t begin, std::size_t length) const {
  // Overflow-safe form of `begin + length > size_`: the naive sum wraps for
  // begin/length near SIZE_MAX, silently passing the check and handing
  // out-of-bounds indices to operator[].
  if (begin > size_ || length > size_ - begin) {
    throw std::out_of_range("BitStream::slice: range out of bounds");
  }
  BitStream out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) out.push_back((*this)[begin + i]);
  return out;
}

BitStream BitStream::xor_fold(unsigned np) const {
  if (np == 0) {
    throw std::invalid_argument("BitStream::xor_fold: np must be >= 1");
  }
  BitStream out;
  out.size_ = size_ / np;
  out.words_.resize((out.size_ + 63) / 64);
  xor_fold_words(words_.data(), out.words_.data(), out.size_, np);
  return out;
}

void xor_fold_words(const std::uint64_t* in, std::uint64_t* out,
                    std::size_t out_bits, unsigned np) {
  const std::size_t out_words = (out_bits + 63) / 64;
  const unsigned tail = static_cast<unsigned>(out_bits & 63);
  const std::uint64_t tail_mask = tail == 0 ? ~0ULL : (1ULL << tail) - 1;
  if (np == 1) {
    std::copy(in, in + out_words, out);
    if (out_words != 0) out[out_words - 1] &= tail_mask;
    return;
  }
  // With P(j) the parity of input bits 0..j, output bit i is
  // P((i + 1) np - 1) ^ P(i np - 1). Output word o covers input words
  // o np .. o np + np - 1, and its group k ends at bit (k + 1) np - 1 of
  // them: the same word and bit mask for every o.
  std::array<std::uint32_t, 64> end_word{};
  std::array<std::uint64_t, 64> end_mask{};
  for (unsigned k = 0; k < 64; ++k) {
    const std::size_t end = std::size_t{k + 1} * np - 1;
    end_word[k] = static_cast<std::uint32_t>(end >> 6);
    end_mask[k] = std::uint64_t{1} << (end & 63);
  }
  const std::size_t in_words = (out_bits * np + 63) / 64;
  std::vector<std::uint64_t> prefix(std::min<std::size_t>(np, in_words));
  std::uint64_t carry = 0;  // all ones when the bits so far XOR to 1
  for (std::size_t o = 0; o < out_words; ++o) {
    const std::uint64_t before = carry & 1;  // P(o 64 np - 1)
    const std::size_t first = o * np;
    const std::size_t last = std::min(first + np, in_words);
    for (std::size_t w = first; w < last; ++w) {
      std::uint64_t x = in[w];  // bit j := XOR of bits 0..j of the word
      x ^= x << 1;
      x ^= x << 2;
      x ^= x << 4;
      x ^= x << 8;
      x ^= x << 16;
      x ^= x << 32;
      x ^= carry;
      prefix[w - first] = x;
      carry = 0 - (x >> 63);
    }
    const bool last_word = o + 1 == out_words;
    const unsigned groups = last_word && tail != 0 ? tail : 64;
    std::uint64_t ends = 0;  // bit k: P at the end of group k
    for (unsigned k = groups; k-- > 0;) {
      ends = ends << 1 | static_cast<std::uint64_t>(
                             (prefix[end_word[k]] & end_mask[k]) != 0);
    }
    out[o] = (ends ^ (ends << 1 | before)) & (last_word ? tail_mask : ~0ULL);
  }
}

double BitStream::ones_fraction() const {
  if (size_ == 0) {
    throw std::logic_error("BitStream::ones_fraction: empty stream");
  }
  return static_cast<double>(count_ones()) / static_cast<double>(size_);
}

std::string BitStream::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) s.push_back((*this)[i] ? '1' : '0');
  return s;
}

bool BitStream::operator==(const BitStream& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

}  // namespace trng::common
