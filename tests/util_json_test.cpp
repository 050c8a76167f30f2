#include "util/json.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "util/error.hpp"

namespace thermo {
namespace {

std::string parse_error_of(const std::string& text) {
  try {
    parse_json(text);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "<no throw>";
}

TEST(JsonParse, Primitives) {
  EXPECT_EQ(parse_json("null").type(), JsonValue::Type::kNull);
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_json("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-0.5").as_number(), -0.5);
  EXPECT_DOUBLE_EQ(parse_json("2e+05").as_number(), 2e5);
  EXPECT_DOUBLE_EQ(parse_json("1.25E-3").as_number(), 1.25e-3);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, WhitespaceAroundDocument) {
  EXPECT_DOUBLE_EQ(parse_json(" \t\r\n 7 \n").as_number(), 7.0);
}

TEST(JsonParse, ArraysAndObjects) {
  const JsonValue v = parse_json(R"({"a":[1,2,3],"b":{"c":true}})");
  ASSERT_TRUE(v.is_object());
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("a")->items().size(), 3u);
  EXPECT_DOUBLE_EQ(v.find("a")->items()[1].as_number(), 2.0);
  EXPECT_TRUE(v.find("b")->find("c")->as_bool());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\/d\b\f\n\r\t")").as_string(),
            "a\"b\\c/d\b\f\n\r\t");
  EXPECT_EQ(parse_json(R"("Aé")").as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600 encodes to 4 UTF-8 bytes.
  EXPECT_EQ(parse_json(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonParse, ObjectOrderIsPreserved) {
  const JsonValue v = parse_json(R"({"z":1,"a":2,"m":3})");
  ASSERT_EQ(v.members().size(), 3u);
  EXPECT_EQ(v.members()[0].first, "z");
  EXPECT_EQ(v.members()[1].first, "a");
  EXPECT_EQ(v.members()[2].first, "m");
  EXPECT_EQ(v.dump(), R"({"z":1,"a":2,"m":3})");
}

TEST(JsonParse, DuplicateKeysRejected) {
  EXPECT_EQ(parse_error_of(R"({"a":1,"a":2})"),
            "json: line 1, column 11: duplicate object key 'a'");
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  EXPECT_EQ(parse_error_of(""), "json: line 1, column 1: unexpected end of input");
  EXPECT_EQ(parse_error_of("{\n  \"a\" 1\n}"),
            "json: line 2, column 7: expected ':' after object key");
  EXPECT_EQ(parse_error_of("[1,2"),
            "json: line 1, column 5: unterminated array (expected ',' or ']')");
  EXPECT_EQ(parse_error_of("nul"),
            "json: line 1, column 1: invalid literal (expected 'null')");
  EXPECT_EQ(parse_error_of("1 2"),
            "json: line 1, column 3: trailing characters after JSON value");
}

TEST(JsonParse, StrictNumberGrammar) {
  EXPECT_EQ(parse_error_of("01"),
            "json: line 1, column 2: trailing characters after JSON value");
  EXPECT_EQ(parse_error_of("1."),
            "json: line 1, column 3: invalid number (expected a digit after '.')");
  EXPECT_EQ(parse_error_of("-"),
            "json: line 1, column 2: invalid number (expected a digit)");
  EXPECT_EQ(parse_error_of("1e"),
            "json: line 1, column 3: invalid number (expected a digit in exponent)");
  EXPECT_EQ(parse_error_of("1e999"),
            "json: line 1, column 6: number out of range");
}

TEST(JsonParse, RawControlCharacterRejected) {
  EXPECT_EQ(parse_error_of("\"a\tb\""),
            "json: line 1, column 4: raw control character in string "
            "(use \\u escapes)");
}

TEST(JsonParse, DepthLimit) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  EXPECT_THROW(parse_json(deep), ParseError);
}

TEST(JsonDump, RoundTripIsIdentity) {
  // dump() is canonical: parsing canonical text and dumping returns the
  // same bytes. This is what makes serve output byte-comparable.
  const std::string canon =
      R"({"id":"x","n":0.1,"big":2e+21,"list":[true,null,"s\n"],"o":{}})";
  EXPECT_EQ(parse_json(canon).dump(), canon);
}

TEST(JsonDump, ShortestRoundTripNumbers) {
  EXPECT_EQ(format_json_number(15.0), "15");
  EXPECT_EQ(format_json_number(0.1), "0.1");
  EXPECT_EQ(format_json_number(2e5), "2e+05");
  EXPECT_EQ(format_json_number(-1.5e-3), "-0.0015");
  EXPECT_EQ(format_json_number(1.0 / 3.0), "0.3333333333333333");
}

TEST(JsonDump, NonFiniteNumbersThrow) {
  EXPECT_THROW(
      JsonValue::number(std::numeric_limits<double>::infinity()).dump(),
      InvalidArgument);
  EXPECT_THROW(format_json_number(std::numeric_limits<double>::quiet_NaN()),
               InvalidArgument);
}

TEST(JsonDump, EscapesControlCharacters) {
  EXPECT_EQ(JsonValue::string("a\1b").dump(), "\"a\\u0001b\"");
  EXPECT_EQ(JsonValue::string("q\"\\\n").dump(), R"("q\"\\\n")");
}

TEST(JsonValueApi, SetReplacesInPlace) {
  JsonValue obj = JsonValue::object();
  obj.set("a", JsonValue::number(1));
  obj.set("b", JsonValue::number(2));
  obj.set("a", JsonValue::number(9));
  EXPECT_EQ(obj.dump(), R"({"a":9,"b":2})");
}

TEST(JsonValueApi, TypeMismatchThrows) {
  const JsonValue v = JsonValue::number(3.0);
  EXPECT_THROW(v.as_string(), InvalidArgument);
  EXPECT_THROW(v.as_bool(), InvalidArgument);
  EXPECT_THROW(v.items(), InvalidArgument);
  EXPECT_THROW(v.members(), InvalidArgument);
  EXPECT_EQ(v.find("x"), nullptr);  // find never throws
  EXPECT_EQ(v.size(), 0u);
}

}  // namespace
}  // namespace thermo
