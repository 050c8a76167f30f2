#include "util/error.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/logging.hpp"

namespace thermo {
namespace {

TEST(Require, PassingConditionDoesNothing) {
  EXPECT_NO_THROW(THERMO_REQUIRE(1 + 1 == 2, "math works"));
}

TEST(Require, FailureThrowsInvalidArgumentWithContext) {
  try {
    THERMO_REQUIRE(false, "the message");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    // Exact bytes, no source location: the message reaches serve
    // records, which must not depend on the build directory.
    EXPECT_STREQ(e.what(), "precondition failed [false]: the message");
  }
}

TEST(Ensure, FailureThrowsLogicError) {
  EXPECT_THROW(THERMO_ENSURE(false, "broken invariant"), LogicError);
}

TEST(ErrorHierarchy, AllDeriveFromError) {
  EXPECT_THROW(throw InvalidArgument("x"), Error);
  EXPECT_THROW(throw LogicError("x"), Error);
  EXPECT_THROW(throw NumericalError("x"), Error);
  EXPECT_THROW(throw ParseError("x"), Error);
}

TEST(Logging, RespectsLevel) {
  std::ostringstream sink;
  Logger::instance().set_sink(&sink);
  Logger::instance().set_level(LogLevel::kWarn);
  THERMO_INFO() << "hidden";
  THERMO_WARN() << "visible";
  Logger::instance().set_sink(nullptr);
  const std::string out = sink.str();
  EXPECT_EQ(out.find("hidden"), std::string::npos);
  EXPECT_NE(out.find("visible"), std::string::npos);
}

TEST(Logging, OffSilencesEverything) {
  std::ostringstream sink;
  Logger::instance().set_sink(&sink);
  Logger::instance().set_level(LogLevel::kOff);
  THERMO_ERROR() << "nope";
  Logger::instance().set_sink(nullptr);
  Logger::instance().set_level(LogLevel::kWarn);
  EXPECT_TRUE(sink.str().empty());
}

TEST(Logging, LevelNames) {
  EXPECT_STREQ(log_level_name(LogLevel::kTrace), "trace");
  EXPECT_STREQ(log_level_name(LogLevel::kError), "error");
}

}  // namespace
}  // namespace thermo
