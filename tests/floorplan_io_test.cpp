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

/// The what() of what parsing `text` throws, "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    parse_flp_string(text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// Empty input gives the empty floorplan's error: the constructor
// rejects a floorplan without blocks.
TEST(FlpIo, EmptyInputGivesEmptyFloorplan) {
  EXPECT_EQ(parse_error("# only comments\n\n"),
            "invalid floorplan 'flp':\n  - floorplan has no blocks");
}

TEST(FlpIo, ABadBlockFailsAtItsLineBeforeALaterParseError) {
  const std::string duplicate =
      "precondition failed [!index_.contains(block.name)]: "
      "duplicate block name 'a'";
  EXPECT_EQ(parse_error("a 1 1 0 0\na 1 1 1 0\nb 1 1 2 0\nc x 1 3 0\n"),
            duplicate);
  EXPECT_EQ(parse_error("a 1 1 0 0\nz 0 1 1 0\nc 1 1\n"),
            "precondition failed [block.width > 0.0 && block.height > 0.0]: "
            "block 'z' must have positive dimensions");
  // A parse error before the bad block still comes first, and a bad
  // block before an overlap.
  EXPECT_EQ(parse_error("a 1 1 0 0\nc x 1 3 0\na 1 1 1 0\n"),
            "flp line 2: field 'width' is not a number: 'x'");
  EXPECT_EQ(parse_error("a 2 2 0 0\nb 2 2 1 1\na 1 1 5 0\n"), duplicate);
  EXPECT_EQ(parse_error("a 2 2 0 0\nb 2 2 1 1\n"),
            "invalid floorplan 'flp':\n  - blocks 'a' and 'b' overlap");
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
