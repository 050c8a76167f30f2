#include "viz/heatmap.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_helpers.hpp"
#include "util/error.hpp"

namespace thermo::viz {
namespace {

using thermo::testing::quad_floorplan;

TEST(AsciiHeatmap, DimensionsAndOrientation) {
  // 2x3 field; hottest cell at row 1 (top), col 2.
  const std::vector<double> cells{1.0, 1.0, 1.0, 1.0, 1.0, 9.0};
  const std::string out = ascii_heatmap(cells, 2, 3);
  const auto lines_end = std::count(out.begin(), out.end(), '\n');
  EXPECT_EQ(lines_end, 2);
  // Top line printed first contains the '@' (hottest).
  const std::string first_line = out.substr(0, out.find('\n'));
  EXPECT_NE(first_line.find('@'), std::string::npos);
}

TEST(AsciiHeatmap, UniformFieldUsesLowestRampChar) {
  const std::string out = ascii_heatmap({2.0, 2.0, 2.0, 2.0}, 2, 2);
  for (char c : out) {
    if (c != '\n') {
      EXPECT_EQ(c, ' ');
    }
  }
}

TEST(AsciiHeatmap, ValidatesShape) {
  EXPECT_THROW(ascii_heatmap({1.0, 2.0}, 2, 2), InvalidArgument);
  EXPECT_THROW(ascii_heatmap({}, 0, 2), InvalidArgument);
}

TEST(AsciiBlockMap, RendersHotBlockDistinctly) {
  const floorplan::Floorplan fp = quad_floorplan();
  const std::string out = ascii_block_map(fp, {100.0, 10.0, 10.0, 10.0}, 24);
  EXPECT_NE(out.find('@'), std::string::npos);
  EXPECT_GT(std::count(out.begin(), out.end(), '\n'), 1);
}

TEST(AsciiBlockMap, ValidatesInputs) {
  const floorplan::Floorplan fp = quad_floorplan();
  EXPECT_THROW(ascii_block_map(fp, {1.0}), InvalidArgument);
  EXPECT_THROW(ascii_block_map(fp, {1.0, 2.0, 3.0, 4.0}, 2), InvalidArgument);
  // The default floorplan has no blocks to draw.
  EXPECT_THROW(ascii_block_map(floorplan::Floorplan(), {}), InvalidArgument);
  EXPECT_THROW(svg_floorplan(floorplan::Floorplan(), {}), InvalidArgument);
}

TEST(SvgFloorplan, ContainsRectPerBlockAndLabels) {
  const floorplan::Floorplan fp = quad_floorplan();
  const std::string svg = svg_floorplan(fp, {50.0, 60.0, 70.0, 80.0});
  EXPECT_EQ(std::count(svg.begin(), svg.end(), '<') > 0, true);
  std::size_t rects = 0, pos = 0;
  while ((pos = svg.find("<rect", pos)) != std::string::npos) {
    ++rects;
    ++pos;
  }
  EXPECT_EQ(rects, 4u);
  EXPECT_NE(svg.find(">a 50.0<"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(SvgFloorplan, HottestBlockIsRed) {
  const floorplan::Floorplan fp = quad_floorplan();
  const std::string svg = svg_floorplan(fp, {0.0, 0.0, 0.0, 100.0});
  EXPECT_NE(svg.find("rgb(255,0,0)"), std::string::npos);
  EXPECT_NE(svg.find("rgb(0,0,255)"), std::string::npos);
}

}  // namespace
}  // namespace thermo::viz
