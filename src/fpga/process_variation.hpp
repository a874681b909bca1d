// Static process variation of the simulated die.
//
// Each physical element (a LUT at a site, a carry tap at a site) gets a
// fixed delay multiplier that is a deterministic function of
// (die seed, site, element index): a systematic across-die gradient plus an
// independent per-element lognormal-ish random component. Two fabrics built
// with the same seed are identical dies; different seeds are different
// devices — which is how the repository reproduces the paper's
// "some LUTs may be slower than average" observation (Section 5.2) and lets
// the m-sweep ablation explore process corners.
#pragma once

#include <cstdint>

#include "fpga/device.hpp"

namespace trng::fpga {

class ProcessVariationModel {
 public:
  /// `sigma_rel` scales the per-element random component;
  /// `gradient_rel` is the worst-case systematic delay tilt corner-to-corner.
  ProcessVariationModel(std::uint64_t die_seed, double gradient_rel = 0.04);

  /// Multiplier (~1.0) for element `element_index` (0 = LUT A, ... 3 = LUT D,
  /// or carry tap index) at slice `c` on a device of geometry `geom`.
  /// `sigma_rel` is the element class's random-variation std-dev.
  double delay_multiplier(const DeviceGeometry& geom, SliceCoord c,
                          int element_index, double sigma_rel) const;

 private:
  std::uint64_t die_seed_;
  double gradient_rel_;
};

}  // namespace trng::fpga
