#include "floorplan/floorplan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo::floorplan {
namespace {

using thermo::testing::idx;
using thermo::testing::nine_floorplan;
using thermo::testing::quad_floorplan;

/// Shared edge length of blocks i and j read from adjacencies(), 0 when
/// they do not abut.
double shared_length(const Floorplan& fp, std::size_t i, std::size_t j) {
  for (const Adjacency& e : fp.adjacencies()) {
    if ((e.a == i && e.b == j) || (e.a == j && e.b == i)) {
      return e.shared_length;
    }
  }
  return 0.0;
}

TEST(Block, GeometryAccessors) {
  const Block b{"x", 2e-3, 1e-3, 1e-3, 4e-3};
  EXPECT_DOUBLE_EQ(b.area(), 2e-6);
  EXPECT_DOUBLE_EQ(b.right(), 3e-3);
  EXPECT_DOUBLE_EQ(b.top(), 5e-3);
}

TEST(Block, CentroidToSideUsesCorrectAxis) {
  const Block b{"x", 2e-3, 4e-3, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(b.centroid_to_side(Side::kNorth), 2e-3);
  EXPECT_DOUBLE_EQ(b.centroid_to_side(Side::kSouth), 2e-3);
  EXPECT_DOUBLE_EQ(b.centroid_to_side(Side::kEast), 1e-3);
  EXPECT_DOUBLE_EQ(b.centroid_to_side(Side::kWest), 1e-3);
}

TEST(Block, SideLength) {
  // A lone block lies on the bounding box with all four sides: width
  // for N/S, height for E/W.
  Floorplan fp("lone");
  fp.add_block({"x", 2e-3, 4e-3, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(0, Side::kNorth), 2e-3);
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(0, Side::kSouth), 2e-3);
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(0, Side::kEast), 4e-3);
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(0, Side::kWest), 4e-3);
}

TEST(Block, OverlapDetection) {
  const Block a{"a", 2e-3, 2e-3, 0.0, 0.0};
  const Block inside{"b", 1e-3, 1e-3, 0.5e-3, 0.5e-3};
  const Block touching{"c", 1e-3, 1e-3, 2e-3, 0.0};
  const Block apart{"d", 1e-3, 1e-3, 5e-3, 5e-3};
  EXPECT_TRUE(a.overlaps(inside));
  EXPECT_FALSE(a.overlaps(touching));  // shared edge is not overlap
  EXPECT_FALSE(a.overlaps(apart));
}

TEST(Floorplan, AddBlockValidation) {
  Floorplan fp("t");
  EXPECT_THROW(fp.add_block({"", 1e-3, 1e-3, 0, 0}), InvalidArgument);
  EXPECT_THROW(fp.add_block({"z", 0.0, 1e-3, 0, 0}), InvalidArgument);
  EXPECT_THROW(fp.add_block({"z", 1e-3, -1e-3, 0, 0}), InvalidArgument);
  fp.add_block({"a", 1e-3, 1e-3, 0, 0});
  EXPECT_THROW(fp.add_block({"a", 1e-3, 1e-3, 5e-3, 0}), InvalidArgument);
}

TEST(Floorplan, IndexOfFindsBlocks) {
  const Floorplan fp = quad_floorplan();
  EXPECT_EQ(*fp.index_of("a"), 0u);
  EXPECT_EQ(*fp.index_of("d"), 3u);
  EXPECT_FALSE(fp.index_of("nope").has_value());
}

TEST(Floorplan, ChipBoundingBox) {
  const Floorplan fp = quad_floorplan();
  EXPECT_DOUBLE_EQ(fp.chip_width(), 2e-3);
  EXPECT_DOUBLE_EQ(fp.chip_height(), 2e-3);
  EXPECT_DOUBLE_EQ(fp.chip_area(), 4e-6);
}

TEST(Floorplan, QuadAdjacencyStructure) {
  const Floorplan fp = quad_floorplan();
  // a-b, a-c, b-d, c-d adjacent; a-d and b-c only touch at a corner.
  EXPECT_GT(shared_length(fp, idx(fp, "a"), idx(fp, "b")), 0.0);
  EXPECT_GT(shared_length(fp, idx(fp, "a"), idx(fp, "c")), 0.0);
  EXPECT_GT(shared_length(fp, idx(fp, "b"), idx(fp, "d")), 0.0);
  EXPECT_GT(shared_length(fp, idx(fp, "c"), idx(fp, "d")), 0.0);
  EXPECT_EQ(shared_length(fp, idx(fp, "a"), idx(fp, "d")), 0.0);
  EXPECT_EQ(shared_length(fp, idx(fp, "b"), idx(fp, "c")), 0.0);
  EXPECT_EQ(fp.adjacencies().size(), 4u);
}

TEST(Floorplan, SharedEdgeLengthFullSide) {
  const Floorplan fp = quad_floorplan();
  EXPECT_DOUBLE_EQ(shared_length(fp, idx(fp, "a"), idx(fp, "b")), 1e-3);
  EXPECT_DOUBLE_EQ(shared_length(fp, idx(fp, "b"), idx(fp, "a")), 1e-3);
  EXPECT_DOUBLE_EQ(shared_length(fp, idx(fp, "a"), idx(fp, "d")), 0.0);
}

TEST(Floorplan, PartialSharedEdge) {
  Floorplan fp("partial");
  fp.add_block({"left", 1e-3, 2e-3, 0.0, 0.0});
  fp.add_block({"right", 1e-3, 1e-3, 1e-3, 0.5e-3});
  // overlap of [0,2] and [0.5,1.5]
  EXPECT_DOUBLE_EQ(shared_length(fp, 0, 1), 1e-3);
}

TEST(Floorplan, NeighboursList) {
  const Floorplan fp = nine_floorplan();
  const auto centre = fp.neighbours(idx(fp, "b1_1"));
  EXPECT_EQ(centre.size(), 4u);
  const auto corner = fp.neighbours(idx(fp, "b0_0"));
  EXPECT_EQ(corner.size(), 2u);
}

TEST(Floorplan, BoundaryExposureCorner) {
  const Floorplan fp = nine_floorplan();
  const std::size_t corner = idx(fp, "b0_0");
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(corner, Side::kSouth), 2e-3);
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(corner, Side::kWest), 2e-3);
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(corner, Side::kNorth), 0.0);
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(corner), 4e-3);
}

TEST(Floorplan, InteriorBlockHasNoBoundaryExposure) {
  const Floorplan fp = nine_floorplan();
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(idx(fp, "b1_1")), 0.0);
}

TEST(Floorplan, EdgeBlockHasOneExposedSide) {
  const Floorplan fp = nine_floorplan();
  const std::size_t edge = idx(fp, "b0_1");  // bottom middle
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(edge, Side::kSouth), 2e-3);
  EXPECT_DOUBLE_EQ(fp.boundary_exposure(edge), 2e-3);
}

TEST(Floorplan, ValidateAcceptsCleanFloorplan) {
  const ValidationReport report = nine_floorplan().validate();
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.errors.empty());
  EXPECT_NEAR(report.coverage, 1.0, 1e-12);
}

TEST(Floorplan, ValidateDetectsOverlap) {
  Floorplan fp("bad");
  fp.add_block({"a", 2e-3, 2e-3, 0.0, 0.0});
  fp.add_block({"b", 2e-3, 2e-3, 1e-3, 1e-3});
  const ValidationReport report = fp.validate();
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("overlap"), std::string::npos);
  EXPECT_THROW(fp.require_valid(), InvalidArgument);
}

TEST(Floorplan, ValidateWarnsAboutPoorCoverage) {
  Floorplan fp("sparse");
  fp.add_block({"a", 1e-3, 1e-3, 0.0, 0.0});
  fp.add_block({"b", 1e-3, 1e-3, 9e-3, 9e-3});
  const ValidationReport report = fp.validate();
  EXPECT_TRUE(report.ok);  // poor coverage is not an error
  EXPECT_TRUE(report.errors.empty());
  EXPECT_LT(report.coverage, 0.05);
}

TEST(Floorplan, ValidateRejectsEmpty) {
  const Floorplan fp("empty");
  EXPECT_FALSE(fp.validate().ok);
  EXPECT_THROW(fp.require_valid(), InvalidArgument);
}

TEST(Floorplan, CacheInvalidatedByAddBlock) {
  Floorplan fp("grow");
  fp.add_block({"a", 1e-3, 1e-3, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(fp.chip_width(), 1e-3);
  fp.add_block({"b", 1e-3, 1e-3, 1e-3, 0.0});
  EXPECT_DOUBLE_EQ(fp.chip_width(), 2e-3);
  EXPECT_GT(shared_length(fp, 0, 1), 0.0);
}

// require_valid() remembers a pass, and only a pass: a failure is
// re-checked (and re-thrown with the same text) on every call, and
// add_block drops a recorded pass, on the floorplan and on copies.
std::string validation_error(const Floorplan& fp) {
  try {
    fp.require_valid();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(FloorplanValidationMemo, InvalidFloorplanThrowsTheSameMessageEveryTime) {
  Floorplan fp("bad");
  fp.add_block({"a", 2e-3, 2e-3, 0.0, 0.0});
  fp.add_block({"b", 2e-3, 2e-3, 1e-3, 1e-3});
  const std::string first = validation_error(fp);
  EXPECT_NE(first.find("'a' and 'b' overlap"), std::string::npos) << first;
  EXPECT_EQ(validation_error(fp), first);
  EXPECT_EQ(validation_error(fp), first);
  const Floorplan copy = fp;
  EXPECT_EQ(validation_error(copy), first);
}

TEST(FloorplanValidationMemo, OverlapAddedAfterAPassIsCaught) {
  Floorplan fp = quad_floorplan();
  ASSERT_EQ(validation_error(fp), "");
  Floorplan copy = fp;  // carries the pass
  EXPECT_EQ(validation_error(copy), "");

  fp.add_block({"e", 1e-3, 1e-3, 0.5e-3, 0.5e-3});  // overlaps a, b, c, d
  EXPECT_NE(validation_error(fp).find("'a' and 'e' overlap"),
            std::string::npos);
  copy.add_block({"e", 1e-3, 1e-3, 1.5e-3, 1.5e-3});  // overlaps d
  EXPECT_NE(validation_error(copy).find("'d' and 'e' overlap"),
            std::string::npos);

  // A non-overlapping block after a pass validates afresh and passes.
  Floorplan grown = quad_floorplan();
  ASSERT_EQ(validation_error(grown), "");
  grown.add_block({"e", 1e-3, 1e-3, 2e-3, 0.0});
  EXPECT_EQ(validation_error(grown), "");
}

TEST(Floorplan, OutOfRangeIndicesThrow) {
  const Floorplan fp = quad_floorplan();
  EXPECT_THROW(fp.block(4), InvalidArgument);
  EXPECT_THROW(fp.neighbours(4), InvalidArgument);
  EXPECT_THROW(fp.boundary_exposure(4), InvalidArgument);
}

TEST(Floorplan, IndexOfSurvivesCopies) {
  Floorplan fp = quad_floorplan();
  Floorplan copy = fp;
  copy.add_block({"e", 1e-3, 1e-3, 2e-3, 0.0});
  EXPECT_EQ(*copy.index_of("e"), 4u);
  EXPECT_FALSE(fp.index_of("e").has_value());
  EXPECT_EQ(*copy.index_of("c"), 2u);
  EXPECT_THROW(copy.add_block({"b", 1e-3, 1e-3, 3e-3, 0.0}), InvalidArgument);
  fp = copy;
  EXPECT_EQ(*fp.index_of("e"), 4u);
  EXPECT_FALSE(fp.index_of("f").has_value());
}

// --- Brute-force references -------------------------------------------
// The all-pairs loops that validate() and the adjacency cache replaced
// with sweeps over sorted edges. The sweeps must reproduce them exactly:
// same pairs, same (i, j) order, same bits.

double reference_interval_overlap(double a0, double a1, double b0, double b1) {
  return std::min(a1, b1) - std::max(a0, b0);
}

std::vector<Adjacency> reference_adjacencies(const std::vector<Block>& blocks) {
  std::vector<Adjacency> out;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    for (std::size_t j = i + 1; j < blocks.size(); ++j) {
      const Block& a = blocks[i];
      const Block& b = blocks[j];
      double length = 0.0;
      Side side = Side::kNorth;
      if (std::fabs(a.top() - b.bottom()) < kGeomTol) {
        length = reference_interval_overlap(a.left(), a.right(), b.left(), b.right());
        side = Side::kNorth;
      } else if (std::fabs(b.top() - a.bottom()) < kGeomTol) {
        length = reference_interval_overlap(a.left(), a.right(), b.left(), b.right());
        side = Side::kSouth;
      } else if (std::fabs(a.right() - b.left()) < kGeomTol) {
        length = reference_interval_overlap(a.bottom(), a.top(), b.bottom(), b.top());
        side = Side::kEast;
      } else if (std::fabs(b.right() - a.left()) < kGeomTol) {
        length = reference_interval_overlap(a.bottom(), a.top(), b.bottom(), b.top());
        side = Side::kWest;
      }
      if (length > kGeomTol) out.push_back(Adjacency{i, j, length, side});
    }
  }
  return out;
}

struct ReferenceBox {
  double min_x, min_y, max_x, max_y;
};

ReferenceBox reference_box(const std::vector<Block>& blocks) {
  ReferenceBox box{blocks[0].left(), blocks[0].bottom(), blocks[0].right(),
                   blocks[0].top()};
  for (const Block& b : blocks) {
    box.min_x = std::min(box.min_x, b.left());
    box.max_x = std::max(box.max_x, b.right());
    box.min_y = std::min(box.min_y, b.bottom());
    box.max_y = std::max(box.max_y, b.top());
  }
  return box;
}

/// N, S, E, W exposure of block i on the bounding box.
std::array<double, 4> reference_exposure(const std::vector<Block>& blocks,
                                         std::size_t i) {
  const ReferenceBox box = reference_box(blocks);
  const Block& b = blocks[i];
  std::array<double, 4> exposure{0.0, 0.0, 0.0, 0.0};
  if (std::fabs(b.top() - box.max_y) < kGeomTol) exposure[0] = b.width;
  if (std::fabs(b.bottom() - box.min_y) < kGeomTol) exposure[1] = b.width;
  if (std::fabs(b.right() - box.max_x) < kGeomTol) exposure[2] = b.height;
  if (std::fabs(b.left() - box.min_x) < kGeomTol) exposure[3] = b.height;
  return exposure;
}

ValidationReport reference_validate(const std::vector<Block>& blocks) {
  ValidationReport report;
  const std::size_t n = blocks.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (blocks[i].overlaps(blocks[j], kGeomTol)) {
        report.errors.push_back("blocks '" + blocks[i].name + "' and '" +
                                blocks[j].name + "' overlap");
      }
    }
  }
  const ReferenceBox box = reference_box(blocks);
  double block_area = 0.0;
  for (const Block& b : blocks) block_area += b.area();
  const double bbox_area = (box.max_x - box.min_x) * (box.max_y - box.min_y);
  report.coverage = bbox_area > 0.0 ? block_area / bbox_area : 0.0;
  report.ok = report.errors.empty();
  return report;
}

/// Random blocks on a coarse lattice, so edges abut exactly, corners
/// meet and interiors overlap often; some coordinates are then nudged
/// by just under or just over kGeomTol (and around 2·kGeomTol).
Floorplan random_messy_floorplan(Rng& rng, std::size_t count, double unit,
                                 long long lattice) {
  const double nudges[] = {0.0,   0.5,   0.999, 1.001,
                           1.5,   1.999, 2.001, 3.0};
  const auto nudge = [&](double value) {
    if (!rng.chance(0.3)) return value;
    const double sign = rng.chance(0.5) ? 1.0 : -1.0;
    return value + sign * nudges[rng.uniform_index(8)] * kGeomTol;
  };
  Floorplan fp("messy");
  for (std::size_t i = 0; i < count; ++i) {
    Block b;
    b.name = "b";
    b.name.append(std::to_string(i));
    b.x = nudge(unit * static_cast<double>(rng.uniform_int(0, lattice)));
    b.y = nudge(unit * static_cast<double>(rng.uniform_int(0, lattice)));
    b.width = nudge(unit * static_cast<double>(rng.uniform_int(1, 4)));
    b.height = nudge(unit * static_cast<double>(rng.uniform_int(1, 4)));
    fp.add_block(std::move(b));
  }
  return fp;
}

void expect_matches_reference(const Floorplan& fp, const std::string& label) {
  const std::vector<Block>& blocks = fp.blocks();
  const ValidationReport expected = reference_validate(blocks);
  const ValidationReport report = fp.validate();
  EXPECT_EQ(report.ok, expected.ok) << label;
  EXPECT_EQ(report.errors, expected.errors) << label;
  EXPECT_EQ(report.coverage, expected.coverage) << label;

  const std::vector<Adjacency> adjacencies = reference_adjacencies(blocks);
  ASSERT_EQ(fp.adjacencies().size(), adjacencies.size()) << label;
  std::vector<std::vector<std::size_t>> edges(blocks.size());
  for (std::size_t k = 0; k < adjacencies.size(); ++k) {
    const Adjacency& want = adjacencies[k];
    const Adjacency& got = fp.adjacencies()[k];
    EXPECT_EQ(got.a, want.a) << label << " adjacency " << k;
    EXPECT_EQ(got.b, want.b) << label << " adjacency " << k;
    EXPECT_EQ(got.shared_length, want.shared_length) << label << " adjacency " << k;
    EXPECT_EQ(got.side_of_a, want.side_of_a) << label << " adjacency " << k;
    edges[want.a].push_back(want.b);
    edges[want.b].push_back(want.a);
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    // neighbours(i) lists exactly the reference neighbours, ascending.
    EXPECT_EQ(fp.neighbours(i), edges[i]) << label << " block " << i;
    const std::array<double, 4> exposure = reference_exposure(blocks, i);
    EXPECT_EQ(fp.boundary_exposure(i, Side::kNorth), exposure[0]) << label;
    EXPECT_EQ(fp.boundary_exposure(i, Side::kSouth), exposure[1]) << label;
    EXPECT_EQ(fp.boundary_exposure(i, Side::kEast), exposure[2]) << label;
    EXPECT_EQ(fp.boundary_exposure(i, Side::kWest), exposure[3]) << label;
  }
}

TEST(FloorplanOracle, SweepsMatchAllPairsOnMessyFloorplans) {
  std::size_t overlaps = 0;
  std::size_t adjacent = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::size_t count = 1 + rng.uniform_index(seed % 4 == 0 ? 200 : 40);
    const double unit = seed % 2 == 0 ? 1e-4 : 1e-3;
    const long long lattice = seed % 3 == 0 ? 30 : 10;
    const Floorplan fp = random_messy_floorplan(rng, count, unit, lattice);
    expect_matches_reference(fp, "seed " + std::to_string(seed));
    overlaps += fp.validate().errors.size();
    adjacent += fp.adjacencies().size();
  }
  // The family must actually exercise both checks.
  EXPECT_GT(overlaps, 100u);
  EXPECT_GT(adjacent, 100u);
}

TEST(FloorplanOracle, GapsAroundTheToleranceMatchAllPairs) {
  // A 1 mm block and a neighbour shifted right by a gap around
  // kGeomTol, on each side of the candidate window, above and below,
  // plus a corner-touching block that shares no edge length.
  for (const double gap : {0.0, 0.5, 0.999, 1.001, 1.999, 2.0, 2.001, -0.999,
                           -1.001, -1.999, -2.001}) {
    Floorplan fp("gap");
    fp.add_block({"a", 1e-3, 1e-3, 0.0, 0.0});
    fp.add_block({"b", 1e-3, 1e-3, 1e-3 + gap * kGeomTol, 0.0});
    fp.add_block({"c", 1e-3, 1e-3, 0.0, 1e-3 + gap * kGeomTol});
    fp.add_block({"d", 1e-3, 1e-3, 1e-3, 1e-3});
    fp.add_block({"e", 1e-3, 1e-3, 2e-3, 2e-3});
    expect_matches_reference(fp, "gap " + std::to_string(gap));
  }
}

TEST(FloorplanOracle, GridOfTouchingBlocksMatchesAllPairs) {
  Floorplan fp("grid");
  for (int r = 0; r < 20; ++r) {
    for (int c = 0; c < 20; ++c) {
      Block b;
      b.name = "g";
      b.name.append(std::to_string(r * 20 + c));
      b.width = b.height = 1e-4;
      b.x = c * 1e-4;
      b.y = r * 1e-4;
      fp.add_block(std::move(b));
    }
  }
  expect_matches_reference(fp, "grid");
  EXPECT_EQ(fp.adjacencies().size(), 2u * 20u * 19u);
}

}  // namespace
}  // namespace thermo::floorplan
