#include "floorplan/generator.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo::floorplan {
namespace {

TEST(SlicingGenerator, ExactBlockCount) {
  Rng rng(1);
  SlicingOptions options;
  options.block_count = 17;
  const Floorplan fp = make_slicing_floorplan(rng, options);
  EXPECT_EQ(fp.size(), 17u);
}

TEST(SlicingGenerator, SingleBlockIsWholeChip) {
  Rng rng(2);
  SlicingOptions options;
  options.block_count = 1;
  const Floorplan fp = make_slicing_floorplan(rng, options);
  ASSERT_EQ(fp.size(), 1u);
  EXPECT_DOUBLE_EQ(fp.block(0).area(), options.chip_width * options.chip_height);
}

TEST(SlicingGenerator, DeterministicForSameSeed) {
  Rng a(7), b(7);
  const Floorplan fa = make_slicing_floorplan(a);
  const Floorplan fb = make_slicing_floorplan(b);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_DOUBLE_EQ(fa.block(i).x, fb.block(i).x);
    EXPECT_DOUBLE_EQ(fa.block(i).area(), fb.block(i).area());
  }
}

TEST(SlicingGenerator, RejectsBadOptions) {
  Rng rng(3);
  SlicingOptions options;
  options.block_count = 0;
  EXPECT_THROW(make_slicing_floorplan(rng, options), InvalidArgument);
  options.block_count = 4;
  options.min_cut_fraction = 0.6;
  EXPECT_THROW(make_slicing_floorplan(rng, options), InvalidArgument);
}

// Property sweep: slicing floorplans of many sizes are always valid and
// fully covering.
class SlicingProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SlicingProperty, AlwaysValidAndCovering) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 977 + GetParam());
    SlicingOptions options;
    options.block_count = GetParam();
    const Floorplan fp = make_slicing_floorplan(rng, options);
    EXPECT_EQ(fp.size(), GetParam());
    const ValidationReport report = fp.validate();
    EXPECT_TRUE(report.ok) << "seed " << seed;
    EXPECT_NEAR(report.coverage, 1.0, 1e-9) << "seed " << seed;
    // Every block must be thermally reachable: neighbour or boundary.
    for (std::size_t i = 0; i < fp.size(); ++i) {
      EXPECT_TRUE(!fp.neighbours(i).empty() || fp.boundary_exposure(i) > 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BlockCounts, SlicingProperty,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 34, 55));

}  // namespace
}  // namespace thermo::floorplan
