#include "thermal/ptrace_io.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "util/error.hpp"

namespace thermo::thermal {
namespace {

TEST(Ptrace, ParsesHeaderAndRows) {
  const PowerTrace trace = parse_ptrace_string(
      "a b c\n"
      "1.0 2.0 3.0\n"
      "0.5 0.0 1.5\n");
  ASSERT_EQ(trace.unit_names.size(), 3u);
  ASSERT_EQ(trace.step_count(), 2u);
  EXPECT_EQ(trace.unit_names[1], "b");
  EXPECT_DOUBLE_EQ(trace.steps[1][2], 1.5);
}

TEST(Ptrace, SkipsCommentsAndBlankLines) {
  const PowerTrace trace = parse_ptrace_string(
      "# HotSpot power trace\n"
      "\n"
      "x y\n"
      "1 2  # step 0\n");
  EXPECT_EQ(trace.unit_names.size(), 2u);
  EXPECT_EQ(trace.step_count(), 1u);
}

TEST(Ptrace, RejectsRowWidthMismatch) {
  try {
    parse_ptrace_string("a b\n1 2 3\n");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Ptrace, RejectsNegativeOrGarbagePower) {
  EXPECT_THROW(parse_ptrace_string("a\n-1\n"), ParseError);
  EXPECT_THROW(parse_ptrace_string("a\nhot\n"), ParseError);
}

TEST(Ptrace, RejectsEmptyInput) {
  EXPECT_THROW(parse_ptrace_string(""), ParseError);
  EXPECT_THROW(parse_ptrace_string("# only a comment\n"), ParseError);
}

TEST(Ptrace, RoundTrip) {
  PowerTrace trace;
  trace.unit_names = {"u0", "u1"};
  trace.steps = {{1.25, 0.0}, {3.5, 2.0}};
  const PowerTrace again = parse_ptrace_string(to_ptrace_string(trace));
  EXPECT_EQ(again.unit_names, trace.unit_names);
  ASSERT_EQ(again.step_count(), 2u);
  EXPECT_DOUBLE_EQ(again.steps[0][0], 1.25);
  EXPECT_DOUBLE_EQ(again.steps[1][1], 2.0);
}

TEST(Ptrace, AlignsColumnsToFloorplanOrder) {
  const floorplan::Floorplan fp = thermo::testing::quad_floorplan();
  // Columns deliberately out of floorplan order.
  const PowerTrace trace = parse_ptrace_string(
      "d c b a\n"
      "4 3 2 1\n");
  const PowerTrace aligned = trace.aligned_to(fp);
  ASSERT_EQ(aligned.unit_names.size(), 4u);
  EXPECT_EQ(aligned.unit_names[0], "a");
  EXPECT_DOUBLE_EQ(aligned.steps[0][0], 1.0);
  EXPECT_DOUBLE_EQ(aligned.steps[0][3], 4.0);
}

TEST(Ptrace, AlignRejectsMissingOrExtraColumns) {
  const floorplan::Floorplan fp = thermo::testing::quad_floorplan();
  EXPECT_THROW(parse_ptrace_string("a b c\n1 2 3\n").aligned_to(fp),
               ParseError);
  EXPECT_THROW(
      parse_ptrace_string("a b c d e\n1 2 3 4 5\n").aligned_to(fp),
      ParseError);
}

TEST(Ptrace, MissingFileThrows) {
  EXPECT_THROW(load_ptrace("/nonexistent/trace.ptrace"), ParseError);
}

}  // namespace
}  // namespace thermo::thermal
