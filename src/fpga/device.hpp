// Spartan-6-like device geometry.
//
// The paper's implementation depends on three structural facts about the
// Spartan-6 fabric (Section 5):
//   1. Only half of the slices contain CARRY4 primitives, and those slices
//      sit in even-numbered columns. Long TDC chains are formed vertically,
//      one slice per row.
//   2. Clock regions span 16 rows; the clock-tree skew between rows (and
//      especially across a region boundary) is the dominant source of TDC
//      bin non-linearity (Menninga et al. [6]).
//   3. Each slice offers 4 LUTs and 8 storage elements, which bounds how the
//      design packs (4 TDC taps sampled by the 4 FFs of the carry slice).
//
// DeviceGeometry captures these facts; it owns no timing (see Fabric).
#pragma once

#include <cstddef>
#include <stdexcept>

namespace trng::fpga {

struct SliceCoord {
  int col = 0;
  int row = 0;

  friend bool operator==(const SliceCoord&, const SliceCoord&) = default;
};

class DeviceGeometry {
 public:
  /// Spartan-6 LX45-like default: 64 columns x 128 rows of slices.
  DeviceGeometry(int columns = 64, int rows = 128, int rows_per_clock_region = 16);

  int columns() const { return columns_; }
  int rows() const { return rows_; }
  int rows_per_clock_region() const { return rows_per_region_; }

  bool contains(SliceCoord c) const {
    return c.col >= 0 && c.col < columns_ && c.row >= 0 && c.row < rows_;
  }

  /// Carry chains exist only in even columns (paper Section 5:
  /// "these slices are located in even numbered columns").
  bool has_carry_chain(SliceCoord c) const;

  /// Index of the clock region containing `c`; throws if out of bounds.
  int clock_region(SliceCoord c) const;

  /// True when [row, row+span) lies entirely inside one clock region — the
  /// placement constraint the paper uses to linearize the TDC.
  bool rows_in_single_region(int row, int span) const;

  /// Per-slice capacity constants (Spartan-6).
  static constexpr int kLutsPerSlice = 4;

 private:
  int columns_;
  int rows_;
  int rows_per_region_;
};

}  // namespace trng::fpga
