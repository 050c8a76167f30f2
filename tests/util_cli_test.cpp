#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace thermo {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  return std::vector<const char*>(args);
}

TEST(Cli, ParsesDoubleOption) {
  CliParser cli("prog", "test");
  double value = 0.0;
  cli.add_double("tl", "limit", &value);
  auto args = argv_of({"prog", "--tl", "145.5"});
  EXPECT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_DOUBLE_EQ(value, 145.5);
}

TEST(Cli, ParsesEqualsSyntax) {
  CliParser cli("prog", "test");
  double value = 0.0;
  cli.add_double("tl", "limit", &value);
  auto args = argv_of({"prog", "--tl=7"});
  EXPECT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_DOUBLE_EQ(value, 7.0);
}

TEST(Cli, ParsesIntAndString) {
  CliParser cli("prog", "test");
  long long n = 0;
  std::string s;
  cli.add_int("n", "count", &n);
  cli.add_string("name", "a name", &s);
  auto args = argv_of({"prog", "--n", "12", "--name", "chip"});
  EXPECT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_EQ(n, 12);
  EXPECT_EQ(s, "chip");
}

TEST(Cli, FlagDefaultsFalseSetsTrue) {
  CliParser cli("prog", "test");
  bool flag = false;
  cli.add_flag("verbose", "talk", &flag);
  auto args = argv_of({"prog", "--verbose"});
  EXPECT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_TRUE(flag);
}

TEST(Cli, UnknownOptionThrows) {
  CliParser cli("prog", "test");
  auto args = argv_of({"prog", "--nope"});
  EXPECT_THROW(cli.parse(static_cast<int>(args.size()), args.data()),
               ParseError);
}

TEST(Cli, MissingValueThrows) {
  CliParser cli("prog", "test");
  double value = 0.0;
  cli.add_double("tl", "limit", &value);
  auto args = argv_of({"prog", "--tl"});
  EXPECT_THROW(cli.parse(static_cast<int>(args.size()), args.data()),
               ParseError);
}

TEST(Cli, BadNumberThrows) {
  CliParser cli("prog", "test");
  double value = 0.0;
  cli.add_double("tl", "limit", &value);
  auto args = argv_of({"prog", "--tl", "hot"});
  EXPECT_THROW(cli.parse(static_cast<int>(args.size()), args.data()),
               ParseError);
}

TEST(Cli, FlagWithValueThrows) {
  CliParser cli("prog", "test");
  bool flag = false;
  cli.add_flag("v", "flag", &flag);
  auto args = argv_of({"prog", "--v=1"});
  EXPECT_THROW(cli.parse(static_cast<int>(args.size()), args.data()),
               ParseError);
}

TEST(Cli, CollectsPositionalArguments) {
  // No program takes a positional argument, so a stray word (an input
  // file whose --in was forgotten) is an error, not silently ignored.
  CliParser cli("prog", "test");
  std::string in;
  cli.add_string("in", "input", &in);
  auto args = argv_of({"prog", "--in", "a.jsonl", "file1", "file2"});
  try {
    cli.parse(static_cast<int>(args.size()), args.data());
    FAIL() << "a stray argument must throw";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()), "unexpected argument 'file1'");
  }
  EXPECT_EQ(in, "a.jsonl");
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli("prog", "test");
  auto args = argv_of({"prog", "--help"});
  ::testing::internal::CaptureStdout();
  EXPECT_FALSE(cli.parse(static_cast<int>(args.size()), args.data()));
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("prog"), std::string::npos);
}

TEST(Cli, DuplicateOptionRegistrationThrows) {
  CliParser cli("prog", "test");
  double a = 0.0, b = 0.0;
  cli.add_double("x", "first", &a);
  EXPECT_THROW(cli.add_double("x", "second", &b), InvalidArgument);
}

TEST(Cli, UsageListsOptions) {
  CliParser cli("prog", "does things");
  double v = 0;
  cli.add_double("knob", "turn me", &v);
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("--knob"), std::string::npos);
  EXPECT_NE(usage.find("turn me"), std::string::npos);
}

}  // namespace
}  // namespace thermo
