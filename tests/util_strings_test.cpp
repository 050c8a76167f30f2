#include "util/strings.hpp"

#include <gtest/gtest.h>

namespace thermo {
namespace {

TEST(Trim, RemovesLeadingAndTrailingWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nfoo\r "), "foo");
}

TEST(Trim, LeavesInnerWhitespace) {
  EXPECT_EQ(trim(" a b "), "a b");
}

TEST(Trim, EmptyAndAllWhitespace) {
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Split, BasicFields) {
  const auto fields = split("a,b,c", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(Split, PreservesEmptyFields) {
  const auto fields = split("a,,c,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(Split, SingleFieldWhenNoSeparator) {
  const auto fields = split("abc", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "abc");
}

TEST(SplitWhitespace, CollapsesRuns) {
  const auto fields = split_whitespace("  a \t b\n\nc ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitWhitespace, EmptyInputGivesNoFields) {
  EXPECT_TRUE(split_whitespace("").empty());
  EXPECT_TRUE(split_whitespace(" \t ").empty());
}

// The one rule for `.flp`/`.ptrace` lines: a '#' starts a comment, and
// what is left is trimmed; an empty result is a line the parsers skip.
TEST(LineContent, StripsTheCommentAndTrims) {
  EXPECT_EQ(line_content("  core 1 2 3 4 # note\r"), "core 1 2 3 4");
  EXPECT_EQ(line_content("a\tb"), "a\tb");
  EXPECT_EQ(line_content("# only a comment"), "");
  EXPECT_EQ(line_content(" \t\r"), "");
  EXPECT_EQ(line_content("   #x y"), "");
  EXPECT_EQ(line_content(""), "");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("floorplan", "floor"));
  EXPECT_FALSE(starts_with("floor", "floorplan"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(ParseDouble, ValidNumbers) {
  EXPECT_DOUBLE_EQ(*parse_double("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*parse_double("-2e-3"), -2e-3);
  EXPECT_DOUBLE_EQ(*parse_double("  42 "), 42.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("1.5 2.5").has_value());
}

TEST(ParseInt, ValidAndInvalid) {
  EXPECT_EQ(*parse_int("123"), 123);
  EXPECT_EQ(*parse_int("-7"), -7);
  EXPECT_FALSE(parse_int("1.5").has_value());
  EXPECT_FALSE(parse_int("").has_value());
}

TEST(Join, WithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace thermo
