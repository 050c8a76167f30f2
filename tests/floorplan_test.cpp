#include "floorplan/floorplan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo::floorplan {
namespace {

using thermo::testing::coverage;
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

/// The what() of the InvalidArgument that building `blocks` as `name`
/// throws, "" when it builds.
std::string construction_error(const std::string& name,
                               std::vector<Block> blocks) {
  try {
    const Floorplan fp(name, std::move(blocks));
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
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
  const Floorplan fp("lone", {{"x", 2e-3, 4e-3, 0.0, 0.0}});
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

// The Validate* and AddBlock* tests below keep their names from the
// former add_block/validate API; the constructor now runs those checks.
TEST(Floorplan, AddBlockValidation) {
  const Block a{"a", 1e-3, 1e-3, 0, 0};
  EXPECT_EQ(construction_error("t", {a, {"", 1e-3, 1e-3, 1e-3, 0}}),
            "precondition failed [!block.name.empty()]: "
            "block name must be non-empty");
  const std::string dimensions =
      "precondition failed [block.width > 0.0 && block.height > 0.0]: "
      "block 'z' must have positive dimensions";
  EXPECT_EQ(construction_error("t", {a, {"z", 0.0, 1e-3, 1e-3, 0}}),
            dimensions);
  EXPECT_EQ(construction_error("t", {a, {"z", 1e-3, -1e-3, 1e-3, 0}}),
            dimensions);
  EXPECT_EQ(
      construction_error(
          "t", {a, {"z", 1e-3, 1e-3, std::numeric_limits<double>::infinity(),
                    0}}),
      "precondition failed [std::isfinite(block.x) && std::isfinite(block.y) "
      "&& std::isfinite(block.width) && std::isfinite(block.height)]: "
      "block 'z' has non-finite geometry");
  const std::string duplicate =
      "precondition failed [!index_.contains(block.name)]: "
      "duplicate block name 'a'";
  EXPECT_EQ(construction_error("t", {a, {"a", 1e-3, 1e-3, 5e-3, 0}}),
            duplicate);
  // Each block is checked before the whole: a duplicate after an
  // overlapping pair names the duplicate, and the first bad block wins.
  EXPECT_EQ(construction_error("t", {a,
                                     {"b", 1e-3, 1e-3, 0.5e-3, 0},
                                     {"a", 1e-3, 1e-3, 5e-3, 0}}),
            duplicate);
  EXPECT_EQ(construction_error("t", {a,
                                     {"a", 1e-3, 1e-3, 5e-3, 0},
                                     {"z", 0.0, 1e-3, 7e-3, 0}}),
            duplicate);
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
  const Floorplan fp("partial", {{"left", 1e-3, 2e-3, 0.0, 0.0},
                                 {"right", 1e-3, 1e-3, 1e-3, 0.5e-3}});
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
  const Floorplan fp = nine_floorplan();
  EXPECT_EQ(fp.size(), 9u);
  EXPECT_NEAR(coverage(fp), 1.0, 1e-12);
}

TEST(Floorplan, ValidateDetectsOverlap) {
  EXPECT_EQ(construction_error("bad", {{"a", 2e-3, 2e-3, 0.0, 0.0},
                                       {"b", 2e-3, 2e-3, 1e-3, 1e-3}}),
            "invalid floorplan 'bad':\n  - blocks 'a' and 'b' overlap");
  // Every overlapping pair is listed, in (i, j) order.
  std::vector<Block> blocks = quad_floorplan().blocks();
  blocks.push_back({"e", 1e-3, 1e-3, 0.5e-3, 0.5e-3});  // overlaps a, b, c, d
  blocks.push_back({"f", 1e-3, 1e-3, 1.5e-3, 1.5e-3});  // overlaps d
  EXPECT_EQ(construction_error("quad+", blocks),
            "invalid floorplan 'quad+':"
            "\n  - blocks 'a' and 'e' overlap"
            "\n  - blocks 'b' and 'e' overlap"
            "\n  - blocks 'c' and 'e' overlap"
            "\n  - blocks 'd' and 'e' overlap"
            "\n  - blocks 'd' and 'f' overlap");
  // A block beside the others, not over them, builds.
  blocks.resize(4);
  blocks.push_back({"e", 1e-3, 1e-3, 2e-3, 0.0});
  EXPECT_EQ(construction_error("quad+", blocks), "");
}

// Poor coverage is no error: the floorplan builds.
TEST(Floorplan, ValidateWarnsAboutPoorCoverage) {
  const Floorplan fp("sparse", {{"a", 1e-3, 1e-3, 0.0, 0.0},
                                {"b", 1e-3, 1e-3, 9e-3, 9e-3}});
  EXPECT_LT(coverage(fp), 0.05);
}

TEST(Floorplan, ValidateRejectsEmpty) {
  EXPECT_EQ(construction_error("empty", {}),
            "invalid floorplan 'empty':\n  - floorplan has no blocks");
  // The default floorplan is the one without blocks.
  const Floorplan none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.name(), "");
  EXPECT_TRUE(none.adjacencies().empty());
  EXPECT_EQ(none.chip_area(), 0.0);
}

TEST(Floorplan, OutOfRangeIndicesThrow) {
  const Floorplan fp = quad_floorplan();
  EXPECT_THROW(fp.block(4), InvalidArgument);
  EXPECT_THROW(fp.neighbours(4), InvalidArgument);
  EXPECT_THROW(fp.boundary_exposure(4), InvalidArgument);
}

TEST(Floorplan, IndexOfSurvivesCopies) {
  Floorplan fp = quad_floorplan();
  const Floorplan copy = fp;
  EXPECT_EQ(*copy.index_of("c"), 2u);
  fp = Floorplan("other", {{"e", 1e-3, 1e-3, 0.0, 0.0}});
  EXPECT_EQ(*fp.index_of("e"), 0u);
  EXPECT_FALSE(fp.index_of("c").has_value());
  EXPECT_EQ(*copy.index_of("d"), 3u);
  EXPECT_FALSE(copy.index_of("e").has_value());
}

TEST(Floorplan, CopiesShareStorage) {
  const Floorplan original = nine_floorplan();
  Floorplan copy = original;
  EXPECT_EQ(&copy.blocks(), &original.blocks());
  EXPECT_EQ(&copy.adjacencies(), &original.adjacencies());
  EXPECT_EQ(&copy.name(), &original.name());
  // A move copies, so the source keeps its floorplan.
  const Floorplan moved = std::move(copy);
  EXPECT_EQ(&moved.blocks(), &original.blocks());
  EXPECT_EQ(copy.size(), 9u);
}

TEST(Floorplan, FourThreadsMakeTheFirstReadsOfAFreshCopy) {
  std::vector<Block> blocks;
  for (std::size_t i = 0; i < 256; ++i) {
    Block b;
    b.name = 't' + std::to_string(i);
    b.width = b.height = 1e-4;
    b.x = static_cast<double>(i % 16) * 1e-4;
    b.y = static_cast<double>(i / 16) * 1e-4;
    blocks.push_back(std::move(b));
  }
  const Floorplan built("fresh", std::move(blocks));
  const Floorplan copy = built;  // never read before the threads start

  struct Reads {
    double width = 0.0;
    std::size_t adjacencies = 0;
    double exposure = 0.0;
  };
  std::array<Reads, 4> reads;
  std::vector<std::thread> threads;
  for (Reads& r : reads) {
    threads.emplace_back([&copy, &r] {
      r.width = copy.chip_width();
      r.adjacencies = copy.adjacencies().size();
      for (std::size_t i = 0; i < copy.size(); ++i) {
        r.exposure += copy.boundary_exposure(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Reads& r : reads) {
    EXPECT_EQ(r.width, built.chip_width());
    EXPECT_EQ(r.adjacencies, 2u * 16u * 15u);
    EXPECT_NEAR(r.exposure, 4.0 * 16e-4, 1e-15);
  }
}

// --- Brute-force references -------------------------------------------
// The all-pairs loops that the constructor's overlap check and its
// adjacency list replaced with sweeps over sorted edges. The sweeps must reproduce them exactly:
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

struct ReferenceReport {
  std::vector<std::string> errors;  ///< overlapping pairs, (i, j) order
  double coverage = 0.0;            ///< sum(block areas) / bbox area
};

ReferenceReport reference_validate(const std::vector<Block>& blocks) {
  ReferenceReport report;
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
  return report;
}

/// Random blocks on a coarse lattice, so edges abut exactly, corners
/// meet and interiors overlap often; some coordinates are then nudged
/// by just under or just over kGeomTol (and around 2·kGeomTol).
std::vector<Block> random_messy_blocks(Rng& rng, std::size_t count,
                                       double unit, long long lattice) {
  const double nudges[] = {0.0,   0.5,   0.999, 1.001,
                           1.5,   1.999, 2.001, 3.0};
  const auto nudge = [&](double value) {
    if (!rng.chance(0.3)) return value;
    const double sign = rng.chance(0.5) ? 1.0 : -1.0;
    return value + sign * nudges[rng.uniform_index(8)] * kGeomTol;
  };
  std::vector<Block> blocks;
  for (std::size_t i = 0; i < count; ++i) {
    Block b;
    b.name = 'b' + std::to_string(i);
    b.x = nudge(unit * static_cast<double>(rng.uniform_int(0, lattice)));
    b.y = nudge(unit * static_cast<double>(rng.uniform_int(0, lattice)));
    b.width = nudge(unit * static_cast<double>(rng.uniform_int(1, 4)));
    b.height = nudge(unit * static_cast<double>(rng.uniform_int(1, 4)));
    blocks.push_back(std::move(b));
  }
  return blocks;
}

/// The blocks in order, without each one that overlaps a block kept
/// before it (by the reference test).
std::vector<Block> without_overlaps(const std::vector<Block>& blocks) {
  std::vector<Block> kept;
  for (const Block& b : blocks) {
    if (std::none_of(kept.begin(), kept.end(), [&](const Block& k) {
          return k.overlaps(b, kGeomTol);
        })) {
      kept.push_back(b);
    }
  }
  return kept;
}

/// Builds `blocks` as `label` and checks the result against the
/// references: the exact error text when any pair overlaps, else the
/// coverage, the adjacencies, the neighbours and the exposures, bit for
/// bit. Returns the overlap count.
std::size_t expect_matches_reference(const std::vector<Block>& blocks,
                                     const std::string& label) {
  const ReferenceReport expected = reference_validate(blocks);
  if (!expected.errors.empty()) {
    std::string message = "invalid floorplan '" + label + "':";
    for (const std::string& e : expected.errors) message += "\n  - " + e;
    EXPECT_EQ(construction_error(label, blocks), message);
    return expected.errors.size();
  }
  const Floorplan fp(label, blocks);
  EXPECT_EQ(coverage(fp), expected.coverage) << label;

  const std::vector<Adjacency> adjacencies = reference_adjacencies(blocks);
  EXPECT_EQ(fp.adjacencies().size(), adjacencies.size()) << label;
  if (fp.adjacencies().size() != adjacencies.size()) return 0;
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
  return 0;
}

TEST(FloorplanOracle, SweepsMatchAllPairsOnMessyFloorplans) {
  std::size_t overlaps = 0;
  std::size_t adjacent = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::size_t count = 1 + rng.uniform_index(seed % 4 == 0 ? 200 : 40);
    const double unit = seed % 2 == 0 ? 1e-4 : 1e-3;
    const long long lattice = seed % 3 == 0 ? 30 : 10;
    const std::vector<Block> blocks =
        random_messy_blocks(rng, count, unit, lattice);
    const std::string label = "seed " + std::to_string(seed);
    overlaps += expect_matches_reference(blocks, label);
    // The layout's blocks that overlap none kept before them build; their
    // adjacencies keep the near-tolerance gaps.
    const std::vector<Block> kept = without_overlaps(blocks);
    EXPECT_EQ(expect_matches_reference(kept, label + " kept"), 0u);
    adjacent += Floorplan(label, kept).adjacencies().size();
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
    expect_matches_reference({{"a", 1e-3, 1e-3, 0.0, 0.0},
                              {"b", 1e-3, 1e-3, 1e-3 + gap * kGeomTol, 0.0},
                              {"c", 1e-3, 1e-3, 0.0, 1e-3 + gap * kGeomTol},
                              {"d", 1e-3, 1e-3, 1e-3, 1e-3},
                              {"e", 1e-3, 1e-3, 2e-3, 2e-3}},
                             "gap " + std::to_string(gap));
  }
}

TEST(FloorplanOracle, GridOfTouchingBlocksMatchesAllPairs) {
  std::vector<Block> blocks;
  for (int r = 0; r < 20; ++r) {
    for (int c = 0; c < 20; ++c) {
      Block b;
      b.name = 'g' + std::to_string(r * 20 + c);
      b.width = b.height = 1e-4;
      b.x = c * 1e-4;
      b.y = r * 1e-4;
      blocks.push_back(std::move(b));
    }
  }
  EXPECT_EQ(expect_matches_reference(blocks, "grid"), 0u);
  EXPECT_EQ(Floorplan("grid", blocks).adjacencies().size(), 2u * 20u * 19u);
}

}  // namespace
}  // namespace thermo::floorplan
