// Tests of the bundled evaluation SoCs (Alpha-15, Figure-1, synthetic).
#include <gtest/gtest.h>

#include <algorithm>

#include "scenario/request.hpp"
#include "scenario/runner.hpp"
#include "soc/alpha.hpp"
#include "soc/fig1.hpp"
#include "soc/synthetic.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace thermo::soc {
namespace {

TEST(AlphaSoc, HasFifteenCoresAndValidates) {
  const core::SocSpec soc = alpha_soc();
  EXPECT_EQ(soc.core_count(), 15u);
  EXPECT_NO_THROW(soc.validate());
}

TEST(AlphaSoc, FloorplanFullyCoversDie) {
  const core::SocSpec soc = alpha_soc();
  EXPECT_NEAR(thermo::testing::coverage(soc.flp), 1.0, 1e-9);
  EXPECT_NEAR(soc.flp.chip_width(), 0.016, 1e-12);
  EXPECT_NEAR(soc.flp.chip_height(), 0.016, 1e-12);
}

TEST(AlphaSoc, PowerDensitySpreadIsLarge) {
  // The paper's premise: power density varies strongly across cores.
  const core::SocSpec soc = alpha_soc();
  double min_density = 1e300, max_density = 0.0;
  for (std::size_t i = 0; i < soc.core_count(); ++i) {
    min_density = std::min(min_density, soc.power_density(i));
    max_density = std::max(max_density, soc.power_density(i));
  }
  EXPECT_GT(max_density / min_density, 10.0);
}

TEST(AlphaSoc, ContainsExpectedUnits) {
  const core::SocSpec soc = alpha_soc();
  for (const char* name : {"L2_0", "L2_1", "Icache", "Dcache", "IntReg",
                           "FPMul", "Bpred", "Router"}) {
    EXPECT_TRUE(soc.flp.index_of(name).has_value()) << name;
  }
}

TEST(AlphaSoc, UniformOneSecondTests) {
  const core::SocSpec soc = alpha_soc();
  for (const auto& test : soc.tests) {
    EXPECT_DOUBLE_EQ(test.length, 1.0);
    EXPECT_GT(test.power, 0.0);
  }
}

TEST(AlphaSoc, PowerScaleMultipliesUniformly) {
  // A request's power_scale is the one way to scale the Alpha SoC.
  const core::SocSpec base = alpha_soc();
  scenario::SocSelector selector;
  selector.kind = scenario::SocKind::kAlpha;
  selector.power_scale = 2.0;
  const core::SocSpec scaled = scenario::ScenarioRunner::build_soc(selector);
  ASSERT_EQ(scaled.core_count(), base.core_count());
  for (std::size_t i = 0; i < base.core_count(); ++i) {
    EXPECT_NEAR(scaled.tests[i].power, 2.0 * base.tests[i].power, 1e-9);
  }
  EXPECT_THROW(scenario::parse_request_line(
                   R"({"soc":{"kind":"alpha","power_scale":0}})"),
               InvalidArgument);
}

TEST(AlphaSoc, StcScaleIsPositive) {
  EXPECT_GT(alpha_stc_scale(), 0.0);
}

TEST(Fig1Soc, SevenCoresFullCoverage) {
  const core::SocSpec soc = fig1_soc();
  EXPECT_EQ(soc.core_count(), 7u);
  EXPECT_NEAR(thermo::testing::coverage(soc.flp), 1.0, 1e-9);
}

TEST(Fig1Soc, AllCoresDissipateFifteenWatts) {
  const core::SocSpec soc = fig1_soc();
  for (const auto& test : soc.tests) EXPECT_DOUBLE_EQ(test.power, 15.0);
}

TEST(Fig1Soc, DensityRatioIsExactlyFour) {
  const core::SocSpec soc = fig1_soc();
  const double dense = soc.power_density(*soc.flp.index_of("C2"));
  const double sparse = soc.power_density(*soc.flp.index_of("C5"));
  EXPECT_NEAR(dense / sparse, 4.0, 1e-9);
}

TEST(Fig1Soc, SessionsPartitionTheSmallAndLargeCores) {
  const core::SocSpec soc = fig1_soc();
  const core::TestSession ts1 = fig1_session_ts1(soc);
  const core::TestSession ts2 = fig1_session_ts2(soc);
  EXPECT_EQ(ts1.size(), 3u);
  EXPECT_EQ(ts2.size(), 3u);
  for (std::size_t core : ts1.cores) {
    for (std::size_t other : ts2.cores) EXPECT_NE(core, other);
  }
  double p1 = 0.0, p2 = 0.0;
  for (std::size_t core : ts1.cores) p1 += soc.tests[core].power;
  for (std::size_t core : ts2.cores) p2 += soc.tests[core].power;
  EXPECT_DOUBLE_EQ(p1, kFig1PowerLimit);
  EXPECT_DOUBLE_EQ(p2, kFig1PowerLimit);
}

TEST(SyntheticSoc, GeneratesRequestedCoreCount) {
  Rng rng(11);
  SyntheticOptions options;
  options.core_count = 23;
  const core::SocSpec soc = make_synthetic_soc(rng, options);
  EXPECT_EQ(soc.core_count(), 23u);
  EXPECT_NO_THROW(soc.validate());
}

TEST(SyntheticSoc, PowerDensitiesWithinConfiguredRange) {
  Rng rng(12);
  SyntheticOptions options;
  options.core_count = 30;
  options.power_density_min = 1e5;
  options.power_density_max = 3e6;
  const core::SocSpec soc = make_synthetic_soc(rng, options);
  for (std::size_t i = 0; i < soc.core_count(); ++i) {
    EXPECT_GE(soc.power_density(i), options.power_density_min * (1 - 1e-9));
    EXPECT_LE(soc.power_density(i), options.power_density_max * (1 + 1e-9));
  }
}

TEST(SyntheticSoc, DeterministicForSeed) {
  Rng a(5), b(5);
  const core::SocSpec sa = make_synthetic_soc(a);
  const core::SocSpec sb = make_synthetic_soc(b);
  ASSERT_EQ(sa.core_count(), sb.core_count());
  for (std::size_t i = 0; i < sa.core_count(); ++i) {
    EXPECT_DOUBLE_EQ(sa.tests[i].power, sb.tests[i].power);
  }
}

TEST(SyntheticSoc, RejectsBadOptions) {
  Rng rng(6);
  SyntheticOptions bad;
  bad.core_count = 0;
  EXPECT_THROW(make_synthetic_soc(rng, bad), InvalidArgument);
  bad = SyntheticOptions{};
  bad.power_density_max = bad.power_density_min / 2.0;
  EXPECT_THROW(make_synthetic_soc(rng, bad), InvalidArgument);
  bad = SyntheticOptions{};
  bad.test_length_min = 0.0;
  EXPECT_THROW(make_synthetic_soc(rng, bad), InvalidArgument);
}

TEST(SyntheticSoc, RaggedTestLengthsWhenConfigured) {
  Rng rng(7);
  SyntheticOptions options;
  options.core_count = 20;
  options.test_length_min = 0.5;
  options.test_length_max = 2.0;
  const core::SocSpec soc = make_synthetic_soc(rng, options);
  double lo = 1e9, hi = 0.0;
  for (const auto& test : soc.tests) {
    lo = std::min(lo, test.length);
    hi = std::max(hi, test.length);
  }
  EXPECT_GE(lo, 0.5);
  EXPECT_LE(hi, 2.0);
  EXPECT_GT(hi, lo);  // essentially certain with 20 draws
}

}  // namespace
}  // namespace thermo::soc
