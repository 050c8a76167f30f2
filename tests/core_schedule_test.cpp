#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "util/error.hpp"

namespace thermo::core {
namespace {

using thermo::testing::nine_soc;

TEST(SocSpec, ValidatesCleanSpec) {
  EXPECT_NO_THROW(nine_soc().validate());
}

TEST(SocSpec, RejectsTestCountMismatch) {
  SocSpec soc = nine_soc();
  soc.tests.pop_back();
  EXPECT_THROW(soc.validate(), InvalidArgument);
}

TEST(SocSpec, RejectsNegativePowerAndZeroLength) {
  SocSpec soc = nine_soc();
  soc.tests[0].power = -1.0;
  EXPECT_THROW(soc.validate(), InvalidArgument);
  soc = nine_soc();
  soc.tests[3].length = 0.0;
  EXPECT_THROW(soc.validate(), InvalidArgument);
}

TEST(SocSpec, TestPowersVector) {
  SocSpec soc = nine_soc(4.0);
  const auto powers = soc.test_powers();
  ASSERT_EQ(powers.size(), 9u);
  for (double p : powers) EXPECT_DOUBLE_EQ(p, 4.0);
}

TEST(SocSpec, PowerDensity) {
  const SocSpec soc = nine_soc(8.0);
  // 2 mm x 2 mm blocks -> 4e-6 m^2.
  EXPECT_DOUBLE_EQ(soc.power_density(0), 8.0 / 4e-6);
  EXPECT_THROW(soc.power_density(9), InvalidArgument);
}

TEST(TestSession, ContainsAndSize) {
  TestSession s;
  s.cores = {1, 4, 7};
  EXPECT_TRUE(s.contains(4));
  EXPECT_FALSE(s.contains(2));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_FALSE(s.empty());
}

TEST(TestSession, LengthIsLongestMemberTest) {
  SocSpec soc = nine_soc();
  soc.tests[1].length = 2.0;
  soc.tests[4].length = 5.0;
  TestSession s;
  s.cores = {1, 4};
  EXPECT_DOUBLE_EQ(s.length(soc), 5.0);
  EXPECT_DOUBLE_EQ(TestSession{}.length(soc), 0.0);
}

TEST(TestSession, PowerMapAndActiveMask) {
  const SocSpec soc = nine_soc(3.0);
  TestSession s;
  s.cores = {0, 8};
  const auto power = s.power_map(soc);
  EXPECT_DOUBLE_EQ(power[0], 3.0);
  EXPECT_DOUBLE_EQ(power[1], 0.0);
  EXPECT_DOUBLE_EQ(power[8], 3.0);
  EXPECT_TRUE(s.contains(0));
  EXPECT_FALSE(s.contains(4));
  EXPECT_TRUE(s.contains(8));
}

TEST(TestSession, OutOfRangeCoreThrows) {
  const SocSpec soc = nine_soc();
  TestSession s;
  s.cores = {42};
  EXPECT_THROW(s.power_map(soc), InvalidArgument);
  EXPECT_THROW(s.length(soc), InvalidArgument);
}

TEST(TestSession, ToStringUsesBlockNames) {
  const SocSpec soc = nine_soc();
  TestSession s;
  s.cores = {0, 1};
  EXPECT_EQ(s.to_string(soc), "{b0_0, b0_1}");
}

TEST(TestSchedule, TotalLengthSumsSessions) {
  SocSpec soc = nine_soc();
  soc.tests[5].length = 3.0;
  TestSchedule sched;
  sched.sessions.push_back({{0, 1}});
  sched.sessions.push_back({{5}});
  EXPECT_DOUBLE_EQ(sched.total_length(soc), 4.0);
}

TEST(TestSchedule, CompletenessDetection) {
  const SocSpec soc = nine_soc();
  TestSchedule sched;
  sched.sessions.push_back({{0, 1, 2, 3}});
  sched.sessions.push_back({{4, 5, 6, 7}});
  EXPECT_FALSE(sched.is_complete(soc));
  sched.sessions.push_back({{8}});
  EXPECT_TRUE(sched.is_complete(soc));
}

TEST(TestSchedule, DuplicateCoreIsIncompleteAndIllFormed) {
  const SocSpec soc = nine_soc();
  TestSchedule sched;
  sched.sessions.push_back({{0, 1}});
  sched.sessions.push_back({{1, 2}});
  EXPECT_FALSE(sched.is_complete(soc));
  EXPECT_THROW(sched.require_well_formed(soc), LogicError);
}

TEST(TestSchedule, EmptySessionIsIllFormed) {
  const SocSpec soc = nine_soc();
  TestSchedule sched;
  sched.sessions.push_back({});
  EXPECT_THROW(sched.require_well_formed(soc), LogicError);
}

TEST(TestSchedule, ToStringListsSessions) {
  const SocSpec soc = nine_soc();
  TestSchedule sched;
  sched.sessions.push_back({{0}});
  sched.sessions.push_back({{1}});
  const std::string text = sched.to_string(soc);
  EXPECT_NE(text.find("TS1"), std::string::npos);
  EXPECT_NE(text.find("TS2"), std::string::npos);
}

}  // namespace
}  // namespace thermo::core
