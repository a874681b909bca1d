// Post-processing (paper Section 4.5).
//
// XOR post-processing folds n_p consecutive raw bits into one output bit,
// trading throughput (divided by n_p) for entropy-per-bit. The bias after
// compression follows the piling-up lemma: b_pp = 2^(n_p - 1) * b^(n_p)
// (Eq. 7).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/bit_source.hpp"

namespace trng::core {

/// BitSource decorator applying XOR compression to ANY source: each output
/// bit is the XOR of np consecutive bits pulled (batched) from the inner
/// source. This is how polymorphic consumers (registry, battery, health
/// chain) get a post-processed stream without knowing the concrete
/// generator: source -> XorCompressedSource -> health -> battery. A whole
/// stream already in memory folds with common::BitStream::xor_fold, which
/// runs the same fold (common::xor_fold_words).
class XorCompressedSource : public BitSource {
 public:
  /// Takes ownership of the inner source. Throws on null source / np == 0.
  XorCompressedSource(std::unique_ptr<BitSource> source, unsigned np);

  void generate_into(std::uint64_t* words, common::Bits nbits) override;

  /// Inner source's info with the name suffixed " + XOR np=<np>" and the
  /// throughput divided by np (the rate-for-entropy trade of Eq. 7).
  SourceInfo info() const override;

 private:
  std::unique_ptr<BitSource> source_;
  unsigned np_;
  std::vector<std::uint64_t> raw_buf_;
};

}  // namespace trng::core
