// The bench CLI/profile layer: every figure binary resolves its scale and
// sweep grids through these helpers, so their parsing rules are public
// surface worth pinning.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "experiment/cli.hpp"

namespace lockss::experiment {
namespace {

// Builds argv from string literals (argv[0] is the program name).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    strings_.insert(strings_.begin(), "bench");
    for (std::string& s : strings_) {
      pointers_.push_back(s.data());
    }
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> pointers_;
};

TEST(CliArgsTest, FlagsAndValues) {
  Argv a({"--paper", "--peers", "42", "--csv", "out.csv"});
  CliArgs args(a.argc(), a.argv());
  EXPECT_TRUE(args.flag("paper"));
  EXPECT_FALSE(args.flag("absent"));
  EXPECT_EQ(args.integer("peers", 7), 42);
  EXPECT_EQ(args.integer("absent", 7), 7);
  EXPECT_EQ(args.text("csv", ""), "out.csv");
}

TEST(CliArgsTest, RealsListParsing) {
  Argv a({"--coverages", "10,40,70,100"});
  CliArgs args(a.argc(), a.argv());
  const auto values = args.reals("coverages", {1});
  ASSERT_EQ(values.size(), 4u);
  EXPECT_DOUBLE_EQ(values[0], 10);
  EXPECT_DOUBLE_EQ(values[3], 100);
  // Fallback applies when the key is absent or empty.
  EXPECT_EQ(args.reals("durations", {5, 30}).size(), 2u);
}

TEST(CliArgsTest, BareFlagBeforeAnotherFlagTakesNoValue) {
  Argv a({"--paper", "--aus", "6"});
  CliArgs args(a.argc(), a.argv());
  EXPECT_TRUE(args.flag("paper"));
  EXPECT_EQ(args.integer("aus", 0), 6);
  // A bare flag's "value" is empty, so numeric lookups fall back.
  EXPECT_EQ(args.integer("paper", 99), 99);
}

TEST(ResolveProfileTest, ReducedDefaultsUseQuickScale) {
  Argv a({});
  CliArgs args(a.argc(), a.argv());
  const BenchProfile profile = resolve_profile(args, 60, 6, 2.0, 1);
  EXPECT_FALSE(profile.paper);
  EXPECT_EQ(profile.peers, 60u);
  EXPECT_EQ(profile.aus, 6u);
  EXPECT_DOUBLE_EQ(profile.years, 2.0);
  EXPECT_EQ(profile.seeds, 1u);
}

TEST(ResolveProfileTest, PaperFlagSelectsSection63Scale) {
  Argv a({"--paper"});
  CliArgs args(a.argc(), a.argv());
  const BenchProfile profile = resolve_profile(args, 60, 6, 2.0, 1);
  EXPECT_TRUE(profile.paper);
  EXPECT_EQ(profile.peers, 100u);  // §6.3 population
  EXPECT_EQ(profile.aus, 50u);     // one 50-AU collection
  EXPECT_DOUBLE_EQ(profile.years, 2.0);
  EXPECT_EQ(profile.seeds, 3u);    // "3 runs per data point"
}

TEST(ResolveProfileTest, ExplicitOverridesBeatBothDefaults) {
  Argv a({"--paper", "--peers", "10", "--seeds", "5"});
  CliArgs args(a.argc(), a.argv());
  const BenchProfile profile = resolve_profile(args, 60, 6, 2.0, 1);
  EXPECT_EQ(profile.peers, 10u);
  EXPECT_EQ(profile.seeds, 5u);
  EXPECT_EQ(profile.aus, 50u);  // untouched --paper default survives
}

TEST(BaseConfigTest, PaperProfilePinsSection71DamageRates) {
  BenchProfile profile;
  profile.paper = true;
  profile.peers = 100;
  profile.aus = 50;
  profile.years = 2.0;
  const ScenarioConfig config = base_config(profile);
  EXPECT_DOUBLE_EQ(config.damage.mean_disk_years_between_failures, 5.0);
  EXPECT_DOUBLE_EQ(config.damage.aus_per_disk, 50.0);
  EXPECT_DOUBLE_EQ(damage_rate_inflation(profile), 1.0);
}

TEST(BaseConfigTest, ReducedProfileDeclaresItsInflationHonestly) {
  BenchProfile profile;
  profile.paper = false;
  profile.peers = 60;
  profile.aus = 6;
  profile.years = 2.0;
  const ScenarioConfig config = base_config(profile);
  // One disk per peer, 0.6 disk-years between failures.
  EXPECT_DOUBLE_EQ(config.damage.mean_disk_years_between_failures, 0.6);
  EXPECT_DOUBLE_EQ(config.damage.aus_per_disk, 6.0);
  // The inflation factor must equal the actual ratio of configured per-AU
  // damage rates — the preamble's "~Nx" claim is load-bearing for
  // EXPERIMENTS.md.
  const double paper_rate = 1.0 / (5.0 * 50.0);
  const double quick_rate = 1.0 / (config.damage.mean_disk_years_between_failures *
                                   config.damage.aus_per_disk);
  EXPECT_NEAR(damage_rate_inflation(profile), quick_rate / paper_rate, 1e-9);
  EXPECT_GT(damage_rate_inflation(profile), 1.0);
}

}  // namespace
}  // namespace lockss::experiment
