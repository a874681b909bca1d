#include "core/postprocess.hpp"

#include <stdexcept>
#include <string>

namespace trng::core {

XorCompressedSource::XorCompressedSource(BitSource& source, unsigned np)
    : source_(&source), np_(np) {
  if (np == 0) {
    throw std::invalid_argument("XorCompressedSource: np must be >= 1");
  }
}

XorCompressedSource::XorCompressedSource(std::unique_ptr<BitSource> source,
                                         unsigned np)
    : owned_(std::move(source)), source_(owned_.get()), np_(np) {
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

bool VonNeumannPostProcessor::feed(bool raw, bool& out) {
  if (!have_first_) {
    first_ = raw;
    have_first_ = true;
    return false;
  }
  have_first_ = false;
  if (first_ == raw) return false;  // 00 / 11 discarded
  out = first_;                     // "10" -> 1, "01" -> 0
  return true;
}

common::BitStream VonNeumannPostProcessor::process(
    const common::BitStream& raw) const {
  VonNeumannPostProcessor vn;  // fresh state; `this` stays untouched (const)
  common::BitStream out;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    bool bit;
    // trng-analyzer: allow(TL006) -- von Neumann rejection's output length is data-dependent, so there is no packed-word batch to append
    if (vn.feed(raw[i], bit)) out.push_back(bit);
  }
  return out;
}

double VonNeumannPostProcessor::expected_rate(double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::domain_error("VonNeumann::expected_rate: p outside [0, 1]");
  }
  return p * (1.0 - p);
}

}  // namespace trng::core
