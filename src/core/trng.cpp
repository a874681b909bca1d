#include "core/trng.hpp"

#include <algorithm>
#include <string>

namespace trng::core {

namespace {

fpga::ElaboratedTrng elaborate_canonical(const fpga::Fabric& fabric,
                                         const DesignParams& params,
                                         int base_col, int base_row) {
  params.validate();
  const auto floorplan = fpga::TrngFloorplan::canonical(
      fabric.geometry(), params.n, params.m, base_col, base_row);
  return fabric.elaborate(floorplan, params.k);
}

}  // namespace

CarryChainTrng::CarryChainTrng(const fpga::Fabric& fabric, DesignParams params,
                               std::uint64_t seed,
                               const sim::NoiseConfig& noise, int base_col,
                               int base_row)
    : params_(params),
      elaborated_(elaborate_canonical(fabric, params, base_col, base_row)),
      sampler_(elaborated_, fabric.spec().flip_flop, noise, seed, params.mode,
               1.0e12 / constants::kSystemClockHz),
      extractor_(params.m, params.k) {}

void CarryChainTrng::generate_into(std::uint64_t* words, common::Bits nbits) {
  std::fill_n(words, common::bits_to_words(nbits).count(), std::uint64_t{0});
  // Accumulate diagnostics in locals and fold them in once after the loop:
  // `words` may alias *this as far as the compiler knows, so member
  // increments inside the loop would each cost a load/store pair.
  const std::size_t n = nbits.count();
  std::uint64_t double_edges = 0, bubbles = 0, missed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sampler_.next_capture_into(params_.accumulation_cycles, scratch_);

    const sim::SnapshotClass cls = sim::classify_packed(scratch_);
    switch (cls) {
      case sim::SnapshotClass::kDoubleEdge: ++double_edges; break;
      case sim::SnapshotClass::kBubbles: ++bubbles; break;
      case sim::SnapshotClass::kNoEdge: break;  // counted below via extractor
      case sim::SnapshotClass::kRegular: break;
    }

    const ExtractionResult r = extractor_.extract_packed(scratch_);
    if (!r.edge_found) {
      ++missed;
      continue;  // a missed edge leaves the bit 0
    }
    words[i >> 6] |= static_cast<std::uint64_t>(r.bit) << (i & 63);
  }
  diagnostics_.captures += n;
  diagnostics_.double_edges += double_edges;
  diagnostics_.bubbles += bubbles;
  diagnostics_.missed_edges += missed;
}

SourceInfo CarryChainTrng::info() const {
  SourceInfo si;
  si.name = "This work (k=" + std::to_string(params_.k) + ")";
  si.platform = "Spartan 6 (sim)";
  si.resources = std::to_string(elaborated_.resources.slices) + " slices";
  si.throughput_bps =
      sampler_.schedule().raw_throughput_bps(params_.accumulation_cycles);
  return si;
}

}  // namespace trng::core
