#include "common/bitstream.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

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

BitStream BitStream::from_words(const std::vector<std::uint64_t>& words,
                                unsigned bits_per_word) {
  if (bits_per_word == 0 || bits_per_word > 64) {
    throw std::invalid_argument(
        "BitStream::from_words: bits_per_word must be in [1, 64]");
  }
  BitStream bs;
  if (words.size() > kMaxBits / bits_per_word) {
    throw std::length_error("BitStream::from_words: size overflow");
  }
  bs.reserve(words.size() * bits_per_word);
  for (std::uint64_t w : words) bs.append_bits(w, bits_per_word);
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
  const std::size_t n = size_ / np;
  std::vector<std::uint64_t> folded((n + 63) / 64);
  xor_fold_words(words_.data(), folded.data(), n, np);
  BitStream out;
  out.append_words(folded.data(), n);
  return out;
}

void xor_fold_words(const std::uint64_t* in, std::uint64_t* out,
                    std::size_t out_bits, unsigned np) {
  std::uint64_t word = 0;
  std::size_t r = 0;  // first input bit of the current group
  for (std::size_t i = 0; i < out_bits; ++i) {
    // A group's parity is the popcount parity of its bits, taken one
    // word-aligned run at a time (one or two runs for np <= 64).
    unsigned parity = 0;
    for (unsigned left = np; left > 0;) {
      const auto offset = static_cast<unsigned>(r & 63);
      const unsigned take = std::min(left, 64U - offset);
      std::uint64_t run = in[r >> 6] >> offset;
      if (take < 64) run &= (std::uint64_t{1} << take) - 1;
      parity ^= static_cast<unsigned>(std::popcount(run));
      r += take;
      left -= take;
    }
    word |= static_cast<std::uint64_t>(parity & 1U) << (i & 63);
    if ((i & 63) == 63) {
      out[i >> 6] = word;
      word = 0;
    }
  }
  if ((out_bits & 63) != 0) out[out_bits >> 6] = word;
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
