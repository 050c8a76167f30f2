#include "util/error.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace thermo
