#include "floorplan/flp_io.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "test_helpers.hpp"
#include "util/error.hpp"

namespace thermo::floorplan {
namespace {

TEST(FlpIo, ParsesHotSpotFormat) {
  const std::string text =
      "# a comment\n"
      "L2\t0.016\t0.0098\t0.0\t0.0\n"
      "\n"
      "Icache 0.0031 0.0026 0.0049 0.0098  # trailing comment\n";
  const Floorplan fp = parse_flp_string(text, "ev6");
  ASSERT_EQ(fp.size(), 2u);
  EXPECT_EQ(fp.block(0).name, "L2");
  EXPECT_DOUBLE_EQ(fp.block(0).width, 0.016);
  EXPECT_DOUBLE_EQ(fp.block(1).x, 0.0049);
  EXPECT_EQ(fp.name(), "ev6");
}

TEST(FlpIo, WrongFieldCountReportsLineNumber) {
  try {
    parse_flp_string("a 1 2 3\n");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

TEST(FlpIo, NonNumericFieldReportsFieldName) {
  try {
    parse_flp_string("a 1 x 3 4\n");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("height"), std::string::npos);
  }
}

TEST(FlpIo, DuplicateNameRejected) {
  EXPECT_THROW(parse_flp_string("a 1 1 0 0\na 1 1 1 0\n"), InvalidArgument);
}

TEST(FlpIo, NegativeDimensionRejected) {
  EXPECT_THROW(parse_flp_string("a -1 1 0 0\n"), InvalidArgument);
}

TEST(FlpIo, EmptyInputGivesEmptyFloorplan) {
  const Floorplan fp = parse_flp_string("# only comments\n\n");
  EXPECT_TRUE(fp.empty());
}

// HotSpot .flp text of test_helpers' nine_floorplan(), as a HotSpot
// user would write it: tab-separated, %g-style metres.
constexpr const char* kNineFlp =
    "# floorplan: nine\n"
    "# <unit-name> <width> <height> <left-x> <bottom-y>  (metres)\n"
    "b0_0\t0.002\t0.002\t0\t0\n"
    "b0_1\t0.002\t0.002\t0.002\t0\n"
    "b0_2\t0.002\t0.002\t0.004\t0\n"
    "b1_0\t0.002\t0.002\t0\t0.002\n"
    "b1_1\t0.002\t0.002\t0.002\t0.002\n"
    "b1_2\t0.002\t0.002\t0.004\t0.002\n"
    "b2_0\t0.002\t0.002\t0\t0.004\n"
    "b2_1\t0.002\t0.002\t0.002\t0.004\n"
    "b2_2\t0.002\t0.002\t0.004\t0.004\n";

TEST(FlpIo, RoundTripPreservesGeometry) {
  const Floorplan original = thermo::testing::nine_floorplan();
  const Floorplan parsed = parse_flp_string(kNineFlp);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed.block(i).name, original.block(i).name);
    EXPECT_NEAR(parsed.block(i).width, original.block(i).width, 1e-15);
    EXPECT_NEAR(parsed.block(i).height, original.block(i).height, 1e-15);
    EXPECT_NEAR(parsed.block(i).x, original.block(i).x, 1e-15);
    EXPECT_NEAR(parsed.block(i).y, original.block(i).y, 1e-15);
  }
  EXPECT_EQ(parsed.adjacencies().size(), original.adjacencies().size());
}

TEST(FlpIo, MissingFileThrows) {
  EXPECT_THROW(load_flp("/nonexistent/path/chip.flp"), ParseError);
}

TEST(FlpIo, LoadFileAndDeriveName) {
  const std::string path = ::testing::TempDir() + "/mychip.flp";
  {
    std::ofstream out(path);
    out << "a 0.001 0.001 0 0\nb 0.001 0.001 0.001 0\n"
           "c 0.001 0.001 0 0.001\nd 0.001 0.001 0.001 0.001\n";
  }
  const Floorplan fp = load_flp(path);
  EXPECT_EQ(fp.name(), "mychip");
  EXPECT_EQ(fp.size(), 4u);
}

}  // namespace
}  // namespace thermo::floorplan
