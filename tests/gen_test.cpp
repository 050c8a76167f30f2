// Properties of the workload generator: determinism per seed, the
// parse/canonical-serialize fixpoint for every emitted line, statistical
// accuracy of the dup/kind-mix knobs, arrival-order patterns, and exact
// config-validation messages. These are the contracts docs/GEN.md
// documents; tests/obs_serve_test.cpp serves a generated stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gen/generator.hpp"
#include "scenario/request.hpp"
#include "util/error.hpp"

namespace thermo::gen {
namespace {

TEST(GenDeterminism, SameConfigSameBytes) {
  GenConfig config;
  config.seed = 42;
  config.count = 200;
  config.dup_rate = 0.25;
  const GeneratedStream a = generate_stream(config);
  const GeneratedStream b = generate_stream(config);
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.costs, b.costs);
  EXPECT_EQ(a.stats.fresh, b.stats.fresh);
  EXPECT_EQ(a.stats.duplicates, b.stats.duplicates);
}

TEST(GenDeterminism, DifferentSeedDifferentStream) {
  GenConfig config;
  config.count = 100;
  config.seed = 1;
  const GeneratedStream a = generate_stream(config);
  config.seed = 2;
  const GeneratedStream b = generate_stream(config);
  EXPECT_NE(a.lines, b.lines);
}

TEST(GenProperty, EveryLineIsACanonicalFixpointAcrossSeeds) {
  // The validity contract: parse succeeds and re-serialization returns
  // the same bytes, for every line, across a seed sweep that exercises
  // all three kinds and both named + synthetic SoCs.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    GenConfig config;
    config.seed = seed;
    config.count = 150;
    config.dup_rate = 0.2;
    const GeneratedStream stream = generate_stream(config);
    ASSERT_EQ(stream.lines.size(), config.count);
    for (const std::string& line : stream.lines) {
      scenario::ScenarioRequest request;
      ASSERT_NO_THROW(request = scenario::parse_request_line(line))
          << "seed " << seed << ": " << line;
      EXPECT_EQ(scenario::to_json_line(request), line) << "seed " << seed;
    }
  }
}

TEST(GenProperty, FreshIdsAreUniqueAndDuplicatesAreVerbatim) {
  GenConfig config;
  config.seed = 7;
  config.count = 300;
  config.dup_rate = 0.3;
  const GeneratedStream stream = generate_stream(config);

  std::map<std::string, std::size_t> line_counts;
  std::set<std::string> ids;
  for (const std::string& line : stream.lines) {
    ++line_counts[line];
    ids.insert(scenario::parse_request_line(line).id);
  }
  // Distinct ids == fresh requests: duplicates reuse their source's id
  // (byte-identical lines), fresh requests never collide.
  EXPECT_EQ(ids.size(), stream.stats.fresh);
  EXPECT_EQ(line_counts.size(), stream.stats.fresh);
  EXPECT_EQ(stream.stats.fresh + stream.stats.duplicates, stream.stats.count);
  EXPECT_EQ(stream.stats.count, config.count);
  std::size_t duplicate_lines = 0;
  for (const auto& [line, count] : line_counts) {
    duplicate_lines += count - 1;
  }
  EXPECT_EQ(duplicate_lines, stream.stats.duplicates);
}

TEST(GenStats, DupRateAndKindMixWithinTolerance) {
  GenConfig config;
  config.seed = 11;
  config.count = 2000;
  config.dup_rate = 0.3;
  const GeneratedStream stream = generate_stream(config);
  const double n = static_cast<double>(config.count);

  EXPECT_NEAR(static_cast<double>(stream.stats.duplicates) / n, 0.3, 0.05);
  EXPECT_NEAR(static_cast<double>(stream.stats.sweep) / n, 0.7, 0.05);
  EXPECT_NEAR(static_cast<double>(stream.stats.ptrace) / n, 0.15, 0.05);
  EXPECT_NEAR(static_cast<double>(stream.stats.chained) / n, 0.15, 0.05);
  EXPECT_EQ(stream.stats.sweep + stream.stats.ptrace + stream.stats.chained,
            config.count);
  // Both new kinds actually appear — the acceptance bar for the mix.
  EXPECT_GT(stream.stats.ptrace, 0u);
  EXPECT_GT(stream.stats.chained, 0u);
}

TEST(GenStats, MixWeightsAreRelative) {
  GenConfig config;
  config.seed = 3;
  config.count = 400;
  config.mix = {0.0, 2.0, 2.0};  // no sweeps; ptrace/chained 50/50
  const GeneratedStream stream = generate_stream(config);
  EXPECT_EQ(stream.stats.sweep, 0u);
  EXPECT_NEAR(static_cast<double>(stream.stats.ptrace) /
                  static_cast<double>(config.count),
              0.5, 0.08);
}

TEST(GenStats, ZipfSkewFavorsSmallSizes) {
  // Sweep-only stream at strong skew: the smallest ladder rung must
  // dominate the largest by an order of magnitude.
  GenConfig config;
  config.seed = 5;
  config.count = 1000;
  config.zipf_skew = 2.0;
  config.mix = {1.0, 0.0, 0.0};
  const GeneratedStream stream = generate_stream(config);
  std::size_t smallest = 0;
  std::size_t largest = 0;
  for (const std::string& line : stream.lines) {
    if (line.find(R"("cores":8,)") != std::string::npos) ++smallest;
    if (line.find(R"("cores":502,)") != std::string::npos) ++largest;
  }
  EXPECT_GT(smallest, 10 * std::max<std::size_t>(largest, 1));
}

TEST(GenDeadlines, RateZeroIsByteIdenticalToTheLegacyStream) {
  // The no-deadline stream must not move a single byte when the knob
  // exists but is off — the outer rate check short-circuits the RNG
  // draw, so streams from earlier versions replay exactly.
  GenConfig config;
  config.seed = 42;
  config.count = 200;
  config.dup_rate = 0.25;
  const GeneratedStream off = generate_stream(config);
  EXPECT_EQ(off.stats.deadlined, 0u);
  for (const std::string& line : off.lines) {
    EXPECT_EQ(line.find("deadline_s"), std::string::npos);
  }
}

TEST(GenDeadlines, RateOneDeadlinesEveryLineWithTheTwoPinnedValues) {
  GenConfig config;
  config.seed = 9;
  config.count = 150;
  config.dup_rate = 0.2;
  config.deadline_rate = 1.0;
  const GeneratedStream stream = generate_stream(config);
  EXPECT_EQ(stream.stats.deadlined, config.count);
  std::size_t tight = 0;
  std::size_t generous = 0;
  for (const std::string& line : stream.lines) {
    const auto request = scenario::parse_request_line(line);
    // Only the two machine-independent values ever appear: tight always
    // misses on any hardware, generous never does.
    if (request.deadline_s == kTightDeadlineS) {
      ++tight;
    } else if (request.deadline_s == kGenerousDeadlineS) {
      ++generous;
    } else {
      ADD_FAILURE() << "unexpected deadline " << request.deadline_s;
    }
    // Fixpoint holds for deadlined lines too.
    EXPECT_EQ(scenario::to_json_line(request), line);
  }
  EXPECT_GT(tight, 0u);
  EXPECT_GT(generous, 0u);
}

TEST(GenDeadlines, DeterministicPerSeedAndCountsDupsInStats) {
  GenConfig config;
  config.seed = 21;
  config.count = 400;
  config.dup_rate = 0.3;
  config.deadline_rate = 0.5;
  const GeneratedStream a = generate_stream(config);
  const GeneratedStream b = generate_stream(config);
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.stats.deadlined, b.stats.deadlined);
  // stats.deadlined counts LINES (duplicates of a deadlined source
  // included), so it must equal a direct scan of the stream.
  std::size_t scanned = 0;
  for (const std::string& line : a.lines) {
    if (scenario::parse_request_line(line).deadline_s > 0.0) ++scanned;
  }
  EXPECT_EQ(a.stats.deadlined, scanned);
  EXPECT_NEAR(static_cast<double>(a.stats.deadlined) /
                  static_cast<double>(config.count),
              0.5, 0.08);
}

// --- arrival-order patterns ------------------------------------------

GenConfig order_config(OrderPattern order) {
  GenConfig config;
  config.seed = 9;
  config.count = 250;
  config.dup_rate = 0.1;
  config.order = order;
  return config;
}

std::vector<std::string> sorted_copy(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(GenOrder, PatternsPermuteTheSameMultiset) {
  const GeneratedStream shuffled =
      generate_stream(order_config(OrderPattern::kShuffled));
  const GeneratedStream whale_last =
      generate_stream(order_config(OrderPattern::kWhaleLast));
  EXPECT_EQ(sorted_copy(whale_last.lines), sorted_copy(shuffled.lines));
  EXPECT_NE(whale_last.lines, shuffled.lines);
}

TEST(GenOrder, WhaleLastPutsTheCostliestRequestLast) {
  const GeneratedStream stream =
      generate_stream(order_config(OrderPattern::kWhaleLast));
  ASSERT_FALSE(stream.costs.empty());
  EXPECT_EQ(stream.costs.back(),
            *std::max_element(stream.costs.begin(), stream.costs.end()));
}

TEST(GenOrder, NamesRoundTrip) {
  for (const OrderPattern order :
       {OrderPattern::kShuffled, OrderPattern::kWhaleLast}) {
    EXPECT_EQ(order_pattern_from_name(order_pattern_name(order)), order);
  }
  for (const char* retired :
       {"random", "as-generated", "sorted", "sorted-desc"}) {
    EXPECT_FALSE(order_pattern_from_name(retired).has_value()) << retired;
  }
}

// --- config validation ------------------------------------------------

std::string validation_error_of(const GenConfig& config) {
  try {
    config.validate();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "<no throw>";
}

TEST(GenValidation, ExactMessages) {
  GenConfig config;
  config.count = 0;
  EXPECT_EQ(validation_error_of(config), "gen config: count: must be >= 1");

  config = GenConfig{};
  config.zipf_skew = -0.5;
  EXPECT_EQ(validation_error_of(config),
            "gen config: zipf_skew: must be finite and >= 0");

  config = GenConfig{};
  config.dup_rate = 1.0;
  EXPECT_EQ(validation_error_of(config),
            "gen config: dup_rate: must be in [0, 1)");

  config = GenConfig{};
  config.mix.ptrace = -1.0;
  EXPECT_EQ(validation_error_of(config),
            "gen config: mix.ptrace: must be finite and >= 0");

  config = GenConfig{};
  config.mix = {0.0, 0.0, 0.0};
  EXPECT_EQ(validation_error_of(config),
            "gen config: mix: at least one kind weight must be > 0");

  config = GenConfig{};
  config.deadline_rate = 1.5;
  EXPECT_EQ(validation_error_of(config),
            "gen config: deadline_rate: must be in [0, 1]");
  config.deadline_rate = -0.1;
  EXPECT_EQ(validation_error_of(config),
            "gen config: deadline_rate: must be in [0, 1]");
}

TEST(GenValidation, GenerateStreamRejectsInvalidConfigs) {
  GenConfig config;
  config.dup_rate = 2.0;
  EXPECT_THROW(generate_stream(config), InvalidArgument);
}

TEST(GenWrite, OneLinePerRequest) {
  GenConfig config;
  config.count = 3;
  const GeneratedStream stream = generate_stream(config);
  std::ostringstream out;
  write_stream(stream, out);
  EXPECT_EQ(out.str(), stream.lines[0] + "\n" + stream.lines[1] + "\n" +
                           stream.lines[2] + "\n");
}

}  // namespace
}  // namespace thermo::gen
