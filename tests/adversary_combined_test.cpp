// §9 ("we need to consider combined adversary strategies"): a network-level
// pipe stoppage over part of the population run concurrently with the
// application-level brute-force adversary.
#include <gtest/gtest.h>

#include "experiment/aggregate.hpp"
#include "experiment/scenario.hpp"

namespace lockss::experiment {
namespace {

ScenarioConfig combined_config() {
  ScenarioConfig config;
  config.peer_count = 24;
  config.au_count = 2;
  config.duration = sim::SimTime::years(1);
  config.seed = 17;
  config.enable_damage = false;
  return config;
}

// 60-day blackouts over half the population, 30 days apart.
adversary::AdversaryPhase stoppage() {
  return {.kind = adversary::PhaseKind::kPipeStoppage,
          .cadence = {.attack_duration = sim::SimTime::days(60),
                      .recuperation = sim::SimTime::days(30),
                      .coverage = 0.5}};
}

adversary::AdversaryPhase brute() {
  return {.kind = adversary::PhaseKind::kBruteForce, .defection = adversary::DefectionPoint::kNone};
}

TEST(CombinedAdversaryTest, BothAttackVectorsAreActive) {
  ScenarioConfig config = combined_config();
  config.adversary = {stoppage(), brute()};
  const RunResult combined = run_scenario(config);
  // Network-level suppression happened...
  EXPECT_GT(combined.messages_filtered, 0u);
  // ...and the effortful adversary got through admission control too.
  EXPECT_GT(combined.adversary_admissions, 10u);
  EXPECT_GT(combined.report.adversary_effort_seconds, 0.0);
}

TEST(CombinedAdversaryTest, HarmAtLeastMatchesEachComponent) {
  ScenarioConfig config = combined_config();

  config.adversary = {stoppage(), brute()};
  const RunResult combined = run_scenario(config);
  config.adversary = {stoppage()};
  const RunResult stoppage_only = run_scenario(config);
  config.adversary = {brute()};
  const RunResult brute_only = run_scenario(config);
  config.adversary.clear();
  const RunResult baseline = run_scenario(config);

  const RelativeMetrics rel_combined = relative_metrics(combined, baseline);
  const RelativeMetrics rel_stoppage = relative_metrics(stoppage_only, baseline);
  const RelativeMetrics rel_brute = relative_metrics(brute_only, baseline);

  // Throughput damage at least matches the blackout component (small slack
  // for run-to-run variation in which peers are covered).
  EXPECT_GE(rel_combined.delay_ratio, rel_stoppage.delay_ratio * 0.9);
  // Friction at least approaches the effortful component's; the blackout
  // removes some victims from the brute-force lanes, so it need not exceed
  // it, but it must clearly exceed baseline.
  EXPECT_GT(rel_combined.friction, 1.1);
  EXPECT_GT(rel_brute.friction, 1.1);
  // The combination must not *help* the defenders: successful polls cannot
  // exceed the better of the two single-vector attacks.
  EXPECT_LE(combined.report.successful_polls,
            std::max(stoppage_only.report.successful_polls, brute_only.report.successful_polls));
}

TEST(CombinedAdversaryTest, SystemStillRecoversBetweenPhases) {
  // Even under the combined attack, the 30-day recuperations let polls
  // through: the year cannot end with near-zero successes at 50% coverage.
  ScenarioConfig config = combined_config();
  config.adversary = {stoppage(), brute()};
  const RunResult combined = run_scenario(config);
  config.adversary.clear();
  const RunResult baseline = run_scenario(config);
  EXPECT_GT(combined.report.successful_polls, baseline.report.successful_polls / 5);
  EXPECT_EQ(combined.report.alarms, 0u);
}

}  // namespace
}  // namespace lockss::experiment
