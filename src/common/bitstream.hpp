// Packed bit container for generated random sequences.
//
// Every TRNG in the repository emits its output into a BitStream; the
// statistical battery, post-processors and entropy estimators all consume
// BitStreams. Bits are stored LSB-first within 64-bit words.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace trng::common {

class BitStream {
 public:
  BitStream() = default;

  /// Constructs from a string of '0'/'1' characters (test convenience).
  /// Throws std::invalid_argument on any other character.
  static BitStream from_string(const std::string& bits);

  /// Takes `words` as the storage of an `nbits`-bit stream, packed
  /// LSB-first (the layout core::BitSource::generate_into writes), without
  /// copying it. `words` must hold exactly (nbits + 63) / 64 words; bits
  /// above `nbits` in the final word are cleared. Throws
  /// std::invalid_argument on a size mismatch.
  static BitStream adopt_words(std::vector<std::uint64_t> words,
                               std::size_t nbits);

  void push_back(bool bit);

  /// Appends the low `count` bits of `value`, LSB first.
  void append_bits(std::uint64_t value, unsigned count);

  /// Appends `nbits` bits from a packed LSB-first word buffer (the layout
  /// produced by core::BitSource::generate_into). `words` must hold at
  /// least (nbits + 63) / 64 words; bits above `nbits` in the final word
  /// are ignored. This is the bulk word-writer that replaces per-bit
  /// push_back loops in generator hot paths.
  void append_words(const std::uint64_t* words, std::size_t nbits);

  void append(const BitStream& other);

  /// Reads bit `i`; bounds-checked, throws std::out_of_range.
  bool at(std::size_t i) const;

  /// Reads bit `i` without bounds checking (hot paths; callers are expected
  /// to have validated the index).
  bool operator[](std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear();
  void reserve(std::size_t bits);

  /// Number of one-bits in the whole stream (hardware-popcount per word).
  std::size_t count_ones() const;

  /// Number of one-bits in [begin, begin+length). Throws std::out_of_range
  /// when the range does not fit (overflow-safe check, like slice()).
  std::size_t count_ones(std::size_t begin, std::size_t length) const;

  /// The 64 bits starting at bit `begin`, packed LSB-first: bit j of the
  /// result is stream bit begin+j. Positions at or past size() read as
  /// zero, so any `begin` is valid — this is the primitive the word-parallel
  /// statistical kernels use to extract packed L-bit windows at arbitrary
  /// (unaligned) offsets.
  std::uint64_t word_at(std::size_t begin) const;

  /// Returns the sub-stream [begin, begin+length). Throws std::out_of_range
  /// if the range does not fit.
  BitStream slice(std::size_t begin, std::size_t length) const;

  /// XOR-compresses the stream by folding each group of `np` consecutive
  /// bits into one (the paper's Section 4.5 post-processing). A trailing
  /// partial group is dropped. np must be >= 1.
  BitStream xor_fold(unsigned np) const;

  /// Fraction of ones, in [0, 1]. Throws std::logic_error when empty.
  double ones_fraction() const;

  /// '0'/'1' textual rendering (tests and debugging; O(n) allocation).
  std::string to_string() const;

  bool operator==(const BitStream& other) const;

  /// Raw word storage, LSB-first; the tail word's unused high bits are zero.
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  /// Capacity guard used by reserve(), adopt_words() and append_words():
  /// large enough for any real sequence, small enough that `bits + 63`
  /// can never wrap std::size_t.
  static constexpr std::size_t kMaxBits = std::size_t{1} << 48;

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

/// The XOR fold behind BitStream::xor_fold and core::XorCompressedSource:
/// bit i of `out` is the XOR of bits [i * np, (i + 1) * np) of `in`, both
/// packed LSB-first. `in` must hold out_bits * np bits; no word past the
/// first (out_bits * np + 63) / 64 is read, and bits past out_bits * np
/// may hold anything. Every one of the (out_bits + 63) / 64 words of `out`
/// is written, tail bits zero. np must be >= 1 (callers validate it).
/// Word-parallel: a running prefix parity per input word, then each output
/// word gathers its 64 group-end parities.
// trng-analyzer: kernel
void xor_fold_words(const std::uint64_t* in, std::uint64_t* out,
                    std::size_t out_bits, unsigned np);

}  // namespace trng::common
