#include "fpga/device.hpp"

namespace trng::fpga {

DeviceGeometry::DeviceGeometry(int columns, int rows, int rows_per_clock_region)
    : columns_(columns), rows_(rows), rows_per_region_(rows_per_clock_region) {
  if (columns <= 0 || rows <= 0 || rows_per_clock_region <= 0) {
    throw std::invalid_argument("DeviceGeometry: dimensions must be positive");
  }
}

bool DeviceGeometry::has_carry_chain(SliceCoord c) const {
  if (!contains(c)) {
    throw std::out_of_range("DeviceGeometry::has_carry_chain: off-device");
  }
  return (c.col % 2) == 0;
}

int DeviceGeometry::clock_region(SliceCoord c) const {
  if (!contains(c)) {
    throw std::out_of_range("DeviceGeometry::clock_region: off-device");
  }
  return c.row / rows_per_region_;
}

bool DeviceGeometry::rows_in_single_region(int row, int span) const {
  if (row < 0 || span <= 0 || row + span > rows_) return false;
  return (row / rows_per_region_) == ((row + span - 1) / rows_per_region_);
}

}  // namespace trng::fpga
