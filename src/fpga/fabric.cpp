#include "fpga/fabric.hpp"

#include <stdexcept>

namespace trng::fpga {

FabricSpec ideal_fabric_spec() {
  FabricSpec spec;
  spec.lut.process_sigma_rel = 0.0;
  spec.carry4.nominal_tap_delay_ps = constants::kNominalCarryBinPs;
  for (double& w : spec.carry4.tap_weight) w = 1.0;
  spec.carry4.process_sigma_rel = 0.0;
  spec.carry4.interslice_extra_ps = 0.0;
  spec.flip_flop.aperture_ps = 0.0;
  spec.flip_flop.static_offset_sigma_ps = 0.0;
  spec.flip_flop.dynamic_jitter_sigma_ps = 0.0;
  spec.clock_tree.skew_per_row_ps = 0.0;
  spec.clock_tree.skew_per_col_ps = 0.0;
  spec.clock_tree.region_offset_bound_ps = 0.0;
  spec.process_gradient_rel = 0.0;
  return spec;
}

Fabric::Fabric(DeviceGeometry geom, std::uint64_t die_seed, FabricSpec spec)
    : geom_(geom),
      spec_(spec),
      variation_(die_seed, spec.process_gradient_rel),
      clock_tree_(geom, spec.clock_tree, die_seed) {}

Picoseconds Fabric::lut_delay(SliceCoord c, int lut_index) const {
  const double mult =
      variation_.delay_multiplier(geom_, c, lut_index, spec_.lut.process_sigma_rel);
  return spec_.lut.nominal_delay_ps * mult *
         spec_.environment.delay_multiplier(op_);
}

ElaboratedTrng Fabric::elaborate(const TrngFloorplan& floorplan,
                                 int downsample_k) const {
  floorplan.validate(geom_);
  if (downsample_k < 1) {
    throw std::invalid_argument("Fabric::elaborate: downsample_k must be >= 1");
  }

  ElaboratedTrng out;
  const double env_delay = spec_.environment.delay_multiplier(op_);
  out.stage_white_sigma_ps =
      spec_.lut.thermal_sigma_ps * spec_.environment.sigma_multiplier(op_);
  const int n = static_cast<int>(floorplan.lines.size());

  // Ring-oscillator stage delays.
  out.ro_stage_delay.reserve(static_cast<std::size_t>(n));
  for (const auto& stage : floorplan.ro_stages) {
    out.ro_stage_delay.push_back(lut_delay(stage.slice, stage.lut_index));
  }

  // Delay lines. Carry taps use element indices 8..11 (distinct from the
  // slice's LUT indices 0..3) in the variation model so LUT and carry
  // variation draws are independent.
  out.lines.reserve(static_cast<std::size_t>(n));
  for (const auto& line : floorplan.lines) {
    ElaboratedDelayLine el;
    const int m = line.taps();
    el.tap_delay.reserve(static_cast<std::size_t>(m));
    el.cumulative_delay.reserve(static_cast<std::size_t>(m));
    el.ff_clock_skew.reserve(static_cast<std::size_t>(m));

    Picoseconds cumulative = 0.0;
    for (int tap = 0; tap < m; ++tap) {
      const SliceCoord slice = line.slice_of_tap(tap);
      const int tap_in_slice = tap % 4;
      const double weight = spec_.carry4.tap_weight[tap_in_slice];
      const double mult = variation_.delay_multiplier(
          geom_, slice, 8 + tap_in_slice, spec_.carry4.process_sigma_rel);
      Picoseconds d = spec_.carry4.nominal_tap_delay_ps * weight * mult;
      // Crossing into a new slice goes through the CO[3]->CIN hand-off.
      if (tap > 0 && tap_in_slice == 0) {
        d += spec_.carry4.interslice_extra_ps;
      }
      d *= env_delay;  // temperature/voltage scale every delay element
      cumulative += d;
      el.tap_delay.push_back(d);
      el.cumulative_delay.push_back(cumulative);
      el.ff_clock_skew.push_back(clock_tree_.arrival_skew(slice));
    }
    out.lines.push_back(std::move(el));
  }

  // Resource accounting, calibrated against the paper's reported totals
  // (67 slices for k=1, 40 slices for k=4 with n=3, m=36):
  //   RO: one LUT per stage, one slice each (paper: "3 slices").
  //   Lines: one slice per CARRY4; the line's FFs live in those slices.
  //   Extractor: XOR fold + edge detector + priority encoder; dominated by
  //   the number of encoder inputs m/k. Estimate: ceil(m/k) + 1 slices.
  const int m = floorplan.lines.front().taps();
  const int carry_slices = n * floorplan.lines.front().carry4_count;
  const int encoder_bins = (m + downsample_k - 1) / downsample_k;
  const int extractor_slices = encoder_bins + 1;

  out.resources.slices = n + carry_slices + extractor_slices;
  out.resources.luts = n + DeviceGeometry::kLutsPerSlice * extractor_slices;
  out.resources.flip_flops = n * m + 2;  // TDC FFs + output/valid registers
  out.resources.carry4s = carry_slices;
  return out;
}

}  // namespace trng::fpga
