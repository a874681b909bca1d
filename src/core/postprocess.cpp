#include "core/postprocess.hpp"

#include <stdexcept>
#include <string>

namespace trng::core {

XorCompressedSource::XorCompressedSource(std::unique_ptr<BitSource> source,
                                         unsigned np)
    : source_(std::move(source)), np_(np) {
  if (source_ == nullptr) {
    throw std::invalid_argument("XorCompressedSource: null source");
  }
  if (np == 0) {
    throw std::invalid_argument("XorCompressedSource: np must be >= 1");
  }
}

void XorCompressedSource::generate_into(std::uint64_t* words,
                                        common::Bits nbits) {
  if (nbits.is_zero()) return;
  const common::Bits raw_bits = nbits * np_;
  // The inner source writes every word of the buffer, so no zero-fill.
  raw_buf_.resize(common::bits_to_words(raw_bits).count());
  source_->generate_into(raw_buf_.data(), raw_bits);
  common::xor_fold_words(raw_buf_.data(), words, nbits.count(), np_);
}

SourceInfo XorCompressedSource::info() const {
  SourceInfo si = source_->info();
  si.name += " + XOR np=" + std::to_string(np_);
  si.throughput_bps /= static_cast<double>(np_);
  return si;
}

}  // namespace trng::core
