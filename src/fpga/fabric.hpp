// Fabric: elaborates a TRNG floorplan on a concrete (seeded) die into the
// per-element timing numbers the timing simulator consumes:
//
//   * the static delay of each ring-oscillator stage (LUT + routing, with
//     process variation),
//   * the incremental and cumulative delay of every TDC tap (CARRY4 tap
//     weights, inter-slice hand-off, process variation),
//   * the clock arrival skew at every sampling flip-flop (clock-tree model),
//   * the occupied-resource report (Table 2 accounting).
//
// The same die seed always elaborates to the same timing — a Fabric is "a
// device on the bench".
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "fpga/clock_tree.hpp"
#include "fpga/device.hpp"
#include "fpga/operating_point.hpp"
#include "fpga/placement.hpp"
#include "fpga/primitives.hpp"
#include "fpga/process_variation.hpp"

namespace trng::fpga {

/// All primitive/timing knobs of the simulated die in one place.
struct FabricSpec {
  LutTimingSpec lut;
  Carry4TimingSpec carry4;
  FlipFlopTimingSpec flip_flop;
  ClockTreeSpec clock_tree;
  EnvironmentalModel environment;
  double process_gradient_rel = 0.04;
};

/// A die with perfectly equidistant TDC bins and ideal flip-flops: no
/// CARRY4 structural DNL, no process variation, no clock skew, no FF
/// threshold offsets or metastability. This is exactly the world the
/// stochastic model's assumptions describe (Section 4.1, assumption 4),
/// so on this fabric the model's predictions must hold *exactly* — used by
/// the model-validation tests and the non-linearity ablation.
FabricSpec ideal_fabric_spec();

/// Concrete timing of one elaborated TDC line.
struct ElaboratedDelayLine {
  /// Incremental delay of tap j (signal travel time from tap j-1 to tap j;
  /// tap 0 is measured from the line input). Size m.
  std::vector<Picoseconds> tap_delay;

  /// Cumulative delay from the line input to tap j. Size m.
  std::vector<Picoseconds> cumulative_delay;

  /// Clock arrival skew at the FF sampling tap j. Size m.
  std::vector<Picoseconds> ff_clock_skew;

  int taps() const { return static_cast<int>(tap_delay.size()); }
  Picoseconds total_delay() const {
    return cumulative_delay.empty() ? 0.0 : cumulative_delay.back();
  }
};

/// Concrete timing of the whole TRNG datapath.
struct ElaboratedTrng {
  std::vector<Picoseconds> ro_stage_delay;  ///< size n
  std::vector<ElaboratedDelayLine> lines;   ///< size n
  ResourceReport resources;

  /// Per-traversal white (thermal) jitter std-dev of one stage on this die
  /// (copied from the fabric spec so the simulator needs no back-pointer).
  Picoseconds stage_white_sigma_ps = constants::kNominalJitterSigmaPs;

  Picoseconds ro_half_period() const {
    Picoseconds sum = 0.0;
    for (Picoseconds d : ro_stage_delay) sum += d;
    return sum;
  }
};

class Fabric {
 public:
  Fabric(DeviceGeometry geom, std::uint64_t die_seed, FabricSpec spec = {});

  const DeviceGeometry& geometry() const { return geom_; }
  const FabricSpec& spec() const { return spec_; }

  /// The same die at a different operating point: all delays scale with
  /// the environmental model, the thermal sigma with sqrt(T).
  Fabric at(const OperatingPoint& op) const {
    Fabric f = *this;
    f.op_ = op;
    return f;
  }

  /// Elaborates the floorplan. `downsample_k` only affects the extractor's
  /// resource estimate (fewer encoder bins), not the physical timing.
  /// Throws std::invalid_argument if the floorplan is invalid on this device.
  ElaboratedTrng elaborate(const TrngFloorplan& floorplan,
                           int downsample_k = 1) const;

  /// Static delay of one LUT stage at `c` on this die.
  Picoseconds lut_delay(SliceCoord c, int lut_index) const;

 private:
  DeviceGeometry geom_;
  FabricSpec spec_;
  ProcessVariationModel variation_;
  ClockTreeModel clock_tree_;
  OperatingPoint op_;
};

}  // namespace trng::fpga
