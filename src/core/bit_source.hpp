// Batched bit-generation interface unifying every generator family.
//
// The repository grows five independent bit producers (the carry-chain
// TRNG, the elementary RO TRNG and three related-work baselines); every
// consumer — SP 800-22 battery, SP 800-90B health monitors, bench tables,
// examples — talks to them through this one abstraction. The contract is
// stream-oriented: implementations fill packed 64-bit words (LSB-first,
// the same layout as common::BitStream) so hot paths amortize virtual
// dispatch and avoid per-bit container growth; `generate` is a derived
// convenience. generate_into is each source's only generation path: a
// stream drawn in chunks equals the same total drawn in one call.
//
// Decorators (core::XorCompressedSource) and the factory registry
// (core/source_registry.hpp) compose on top of this interface, giving the
// canonical chain: source -> XOR post-process -> health tests -> battery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/bitstream.hpp"
#include "common/units.hpp"

namespace trng::core {

/// Identity and headline figures of a bit source, used by comparison
/// tables and reports: the paper's own design and the related-work
/// baselines share one schema.
struct SourceInfo {
  std::string name;        ///< design / citation, e.g. "This work (k=1)"
  std::string platform;    ///< target device, e.g. "Spartan 6 (sim)"
  std::string resources;   ///< area figure as reported, e.g. "67 slices"
  double throughput_bps = 0.0;  ///< nominal output rate in bits/s
};

/// Abstract batched random-bit source.
class BitSource {
 public:
  virtual ~BitSource() = default;

  /// Fills `nbits` bits into `words`, packed LSB-first (bit i lands at
  /// words[i >> 6] bit (i & 63)). `words` must hold at least
  /// bits_to_words(nbits) words; bits above `nbits` in the final word are
  /// zeroed. Successive calls continue one stream, so the chunking of the
  /// draws never changes the bits. The count is strongly typed
  /// (common::Bits): a word count cannot be passed here without an
  /// explicit, visible conversion.
  virtual void generate_into(std::uint64_t* words, common::Bits nbits) = 0;

  /// Identity and headline throughput/resource figures.
  virtual SourceInfo info() const = 0;

  /// Generates `count` bits into a BitStream via the batched path.
  /// Non-virtual on purpose: it is pure plumbing over generate_into, so a
  /// call through any static type returns the same bits.
  common::BitStream generate(common::Bits count);
};

}  // namespace trng::core
