// CarryChainTrng: the paper's TRNG, end to end, on a simulated die.
//
//   ring oscillator (entropy source)
//     -> carry-chain TDC lines (digitization)
//     -> entropy extractor (XOR fold, first-edge priority encode, LSB)
//
// One raw bit is produced every N_A system-clock cycles, so raw throughput
// is f_CLK / N_A. XOR post-processing is a separate stage: wrap the TRNG in
// core::XorCompressedSource (rate f_CLK / (N_A * n_p), Table 1's
// throughput column), or fold a stream in memory with BitStream::xor_fold.
#pragma once

#include <cstdint>

#include "core/bit_source.hpp"
#include "core/config.hpp"
#include "core/extractor.hpp"
#include "core/postprocess.hpp"
#include "fpga/fabric.hpp"
#include "sim/sampler.hpp"

namespace trng::core {

/// Emits RAW (pre-post-processing) bits: generate_into() and the inherited
/// BitSource::generate() both return one raw bit per capture.
class CarryChainTrng : public BitSource {
 public:
  /// Places the canonical floorplan (Section 5) on `fabric`, elaborates it
  /// and builds the datapath. `noise` defaults to the full noise taxonomy;
  /// use sim::NoiseConfig::white_only() for the model's idealized world.
  /// Throws std::invalid_argument for invalid parameters/floorplans.
  CarryChainTrng(const fpga::Fabric& fabric, DesignParams params,
                 std::uint64_t seed,
                 const sim::NoiseConfig& noise = sim::NoiseConfig{},
                 int base_col = 0, int base_row = 17);

  /// BitSource: `nbits` raw bits, one capture each, via the packed
  /// capture -> classify -> extract pipeline (no per-capture allocation).
  /// A capture whose snapshots contain no edge (possible for too-small m)
  /// yields 0 and is counted in diagnostics().missed_edges.
  void generate_into(std::uint64_t* words, common::Bits nbits) override;

  /// BitSource: identity + the paper's headline figures; throughput_bps is
  /// the raw rate f_CLK / N_A.
  SourceInfo info() const override;

  const fpga::ResourceReport& resources() const {
    return elaborated_.resources;
  }
  const fpga::ElaboratedTrng& elaborated() const { return elaborated_; }

  struct Diagnostics {
    std::uint64_t captures = 0;
    std::uint64_t missed_edges = 0;   ///< no edge in any line (Sec. 5.2)
    std::uint64_t double_edges = 0;   ///< Fig. 4b events
    std::uint64_t bubbles = 0;        ///< Fig. 4c events
  };
  const Diagnostics& diagnostics() const { return diagnostics_; }

  /// Metastable FF captures so far (from the delay-line simulators).
  std::uint64_t metastable_events() const {
    return sampler_.metastable_events();
  }

 private:
  DesignParams params_;
  fpga::ElaboratedTrng elaborated_;
  sim::SampleController sampler_;
  EntropyExtractor extractor_;
  Diagnostics diagnostics_;
  sim::PackedCapture scratch_;  ///< reused by generate_into
};

}  // namespace trng::core
