// Unit tests for the Spartan-6-like device geometry rules.
#include <gtest/gtest.h>

#include "fpga/device.hpp"

namespace trng::fpga {
namespace {

TEST(DeviceGeometry, DefaultDimensions) {
  DeviceGeometry g;
  EXPECT_EQ(g.columns(), 64);
  EXPECT_EQ(g.rows(), 128);
  EXPECT_EQ(g.rows_per_clock_region(), 16);
}

TEST(DeviceGeometry, RejectsBadDimensions) {
  EXPECT_THROW(DeviceGeometry(0, 10, 16), std::invalid_argument);
  EXPECT_THROW(DeviceGeometry(10, -1, 16), std::invalid_argument);
  EXPECT_THROW(DeviceGeometry(10, 10, 0), std::invalid_argument);
}

TEST(DeviceGeometry, Contains) {
  DeviceGeometry g(4, 8, 4);
  EXPECT_TRUE(g.contains({0, 0}));
  EXPECT_TRUE(g.contains({3, 7}));
  EXPECT_FALSE(g.contains({4, 0}));
  EXPECT_FALSE(g.contains({0, 8}));
  EXPECT_FALSE(g.contains({-1, 0}));
}

TEST(DeviceGeometry, CarryChainsOnlyInEvenColumns) {
  DeviceGeometry g;
  for (int col = 0; col < g.columns(); ++col) {
    EXPECT_EQ(g.has_carry_chain({col, 0}), col % 2 == 0) << "col " << col;
  }
  EXPECT_THROW(g.has_carry_chain({-1, 0}), std::out_of_range);
}

TEST(DeviceGeometry, ClockRegions) {
  DeviceGeometry g;
  EXPECT_EQ(g.clock_region({0, 0}), 0);
  EXPECT_EQ(g.clock_region({0, 15}), 0);
  EXPECT_EQ(g.clock_region({0, 16}), 1);
  EXPECT_EQ(g.clock_region({0, 127}), 7);
  EXPECT_THROW(g.clock_region({0, 128}), std::out_of_range);
}

TEST(DeviceGeometry, RowsInSingleRegion) {
  DeviceGeometry g;
  EXPECT_TRUE(g.rows_in_single_region(0, 16));
  EXPECT_TRUE(g.rows_in_single_region(17, 9));   // paper's 9-CARRY4 chain
  EXPECT_FALSE(g.rows_in_single_region(15, 2));  // crosses 15->16
  EXPECT_FALSE(g.rows_in_single_region(10, 20));
  EXPECT_FALSE(g.rows_in_single_region(-1, 4));
  EXPECT_FALSE(g.rows_in_single_region(120, 16));  // runs off the device
  EXPECT_FALSE(g.rows_in_single_region(0, 0));
}

TEST(DeviceGeometry, PerSliceCapacityConstants) {
  EXPECT_EQ(DeviceGeometry::kLutsPerSlice, 4);
}

}  // namespace
}  // namespace trng::fpga
