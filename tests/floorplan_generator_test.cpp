#include "floorplan/generator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "test_helpers.hpp"
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
    EXPECT_NEAR(thermo::testing::coverage(fp), 1.0, 1e-9) << "seed " << seed;
    // Every block must be thermally reachable: neighbour or boundary.
    for (std::size_t i = 0; i < fp.size(); ++i) {
      EXPECT_TRUE(!fp.neighbours(i).empty() || fp.boundary_exposure(i) > 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BlockCounts, SlicingProperty,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 34, 55));

// Brute-force reference: the generator with the per-split linear scan
// for the first largest region, which a max-heap on (area, -index)
// replaced. Same RNG draws, same tie-break, so the same blocks.
struct ReferenceRegion {
  double x, y, w, h;
};

std::vector<ReferenceRegion> reference_slicing(Rng& rng,
                                               const SlicingOptions& options) {
  std::vector<ReferenceRegion> regions{
      {0.0, 0.0, options.chip_width, options.chip_height}};
  while (regions.size() < options.block_count) {
    std::size_t largest = 0;
    for (std::size_t i = 1; i < regions.size(); ++i) {
      if (regions[i].w * regions[i].h > regions[largest].w * regions[largest].h) {
        largest = i;
      }
    }
    const ReferenceRegion region = regions[largest];
    const bool can_cut_vertical = region.w >= 2.0 * options.min_block_dim;
    const bool can_cut_horizontal = region.h >= 2.0 * options.min_block_dim;
    if (!can_cut_vertical && !can_cut_horizontal) {
      throw InvalidArgument("reference: cannot cut");
    }
    bool cut_vertical;
    if (can_cut_vertical && can_cut_horizontal) {
      cut_vertical = region.w > region.h ? true
                    : region.h > region.w ? false
                                          : rng.chance(0.5);
    } else {
      cut_vertical = can_cut_vertical;
    }
    const double fraction =
        rng.uniform(options.min_cut_fraction, 1.0 - options.min_cut_fraction);
    ReferenceRegion first = region;
    ReferenceRegion second = region;
    if (cut_vertical) {
      first.w = region.w * fraction;
      second.x = region.x + first.w;
      second.w = region.w - first.w;
    } else {
      first.h = region.h * fraction;
      second.y = region.y + first.h;
      second.h = region.h - first.h;
    }
    regions[largest] = first;
    regions.push_back(second);
  }
  return regions;
}

void expect_slicing_matches_reference(std::uint64_t seed,
                                      const SlicingOptions& options) {
  Rng rng(seed);
  Rng reference_rng(seed);
  const Floorplan fp = make_slicing_floorplan(rng, options);
  const std::vector<ReferenceRegion> regions =
      reference_slicing(reference_rng, options);
  ASSERT_EQ(fp.size(), regions.size());
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const Block& b = fp.block(i);
    std::string name = "c";  // appended: GCC 12 -Wrestrict misfires on "c" + ...
    name.append(std::to_string(i));
    EXPECT_EQ(b.name, name);
    EXPECT_EQ(b.x, regions[i].x) << "seed " << seed << " block " << i;
    EXPECT_EQ(b.y, regions[i].y) << "seed " << seed << " block " << i;
    EXPECT_EQ(b.width, regions[i].w) << "seed " << seed << " block " << i;
    EXPECT_EQ(b.height, regions[i].h) << "seed " << seed << " block " << i;
  }
  // Both consumed the same draws.
  EXPECT_EQ(rng.next_u64(), reference_rng.next_u64()) << "seed " << seed;
}

TEST(SlicingOracle, MatchesLinearScanBlockForBlock) {
  for (const std::size_t count : {1u, 2u, 3u, 8u, 55u, 246u, 1000u}) {
    for (const std::uint64_t seed : {1u, 7u, 29u, 103u}) {
      SlicingOptions options;
      options.block_count = count;
      expect_slicing_matches_reference(seed * 131 + count, options);
    }
  }
}

TEST(SlicingOracle, EqualAreaTiesPickTheFirstLargestRegion) {
  // Cut fractions pinned to within an ulp of one half on a square chip:
  // halves come out with exactly equal areas, so nearly every split is
  // a tie the index tie-break must settle as the linear scan did.
  for (const std::size_t count : {4u, 17u, 64u, 300u}) {
    for (const std::uint64_t seed : {3u, 11u}) {
      SlicingOptions options;
      options.block_count = count;
      options.chip_width = options.chip_height = 0.016;
      options.min_block_dim = 1e-9;
      options.min_cut_fraction = std::nextafter(0.5, 0.0);
      expect_slicing_matches_reference(seed, options);
    }
  }
}

}  // namespace
}  // namespace thermo::floorplan
