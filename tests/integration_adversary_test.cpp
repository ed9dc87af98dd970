// End-to-end scenario tests with each adversary (§7.2–§7.4), verifying the
// qualitative results of the paper's evaluation at reduced scale.
#include <gtest/gtest.h>

#include "experiment/aggregate.hpp"
#include "experiment/scenario.hpp"

namespace lockss::experiment {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig config;
  config.peer_count = 30;
  config.au_count = 2;
  config.duration = sim::SimTime::years(1);
  config.seed = 7;
  // Damage fast enough for measurable access failures in 1 year.
  config.damage.mean_disk_years_between_failures = 0.2;
  config.damage.aus_per_disk = 2.0;
  return config;
}

TEST(PipeStoppageIntegrationTest, TotalBlackoutStopsPolls) {
  ScenarioConfig config = small_config();
  config.enable_damage = false;
  config.adversary = {{.kind = adversary::PhaseKind::kPipeStoppage,
                       .cadence = {.attack_duration = sim::SimTime::days(360),
                                   .recuperation = sim::SimTime::days(30),
                                   .coverage = 1.0}}};
  const RunResult attacked = run_scenario(config);
  config.adversary.clear();
  const RunResult baseline = run_scenario(config);
  // A year-long 100%-coverage blackout suppresses essentially all polls.
  EXPECT_LT(attacked.report.successful_polls, baseline.report.successful_polls / 10 + 5);
  EXPECT_GT(attacked.messages_filtered, 0u);
}

TEST(PipeStoppageIntegrationTest, ShortAttacksBarelyMatter) {
  // §7.2: "attacks must last at least 60 days to raise the delay ratio by an
  // order of magnitude" — short repeated stoppages are absorbed by retries
  // spread across the 90-day solicitation window.
  ScenarioConfig config = small_config();
  config.enable_damage = false;
  config.adversary = {{.kind = adversary::PhaseKind::kPipeStoppage,
                       .cadence = {.attack_duration = sim::SimTime::days(2),
                                   .recuperation = sim::SimTime::days(30),
                                   .coverage = 1.0}}};
  const RunResult attacked = run_scenario(config);
  config.adversary.clear();
  const RunResult baseline = run_scenario(config);
  EXPECT_GT(attacked.report.successful_polls, baseline.report.successful_polls * 8 / 10);
}

TEST(PipeStoppageIntegrationTest, PartialCoverageDegradesGracefully) {
  ScenarioConfig config = small_config();
  config.enable_damage = false;
  config.duration = sim::SimTime::years(1);
  config.adversary = {{.kind = adversary::PhaseKind::kPipeStoppage,
                       .cadence = {.attack_duration = sim::SimTime::days(60),
                                   .recuperation = sim::SimTime::days(30),
                                   .coverage = 0.4}}};
  const RunResult attacked = run_scenario(config);
  config.adversary.clear();
  const RunResult baseline = run_scenario(config);
  // 40% coverage must hurt less than proportionally (untargeted peers keep
  // auditing; targeted peers recover in recuperation).
  EXPECT_GT(attacked.report.successful_polls, baseline.report.successful_polls / 3);
  EXPECT_LT(attacked.report.successful_polls, baseline.report.successful_polls + 1);
}

TEST(PipeStoppageIntegrationTest, DamageAccumulatesDuringBlackout) {
  ScenarioConfig config = small_config();
  config.adversary = {{.kind = adversary::PhaseKind::kPipeStoppage,
                       .cadence = {.attack_duration = sim::SimTime::days(180),
                                   .recuperation = sim::SimTime::days(30),
                                   .coverage = 1.0}}};
  const RunResult attacked = run_scenario(config);
  config.adversary.clear();
  const RunResult baseline = run_scenario(config);
  // Repairs are blocked during blackouts, so damage lingers longer.
  EXPECT_GT(attacked.report.access_failure_probability,
            baseline.report.access_failure_probability);
}

TEST(AdmissionFloodIntegrationTest, AuditsContinueUnderGarbageFlood) {
  // §7.3: "these attacks have little effect on the access failure
  // probability or the delay ratio."
  ScenarioConfig config = small_config();
  config.enable_damage = false;
  config.adversary = {{.kind = adversary::PhaseKind::kAdmissionFlood,
                       .cadence = {.attack_duration = sim::SimTime::days(360),
                                   .recuperation = sim::SimTime::days(30),
                                   .coverage = 1.0}}};
  const RunResult attacked = run_scenario(config);
  config.adversary.clear();
  const RunResult baseline = run_scenario(config);
  EXPECT_GT(attacked.adversary_invitations, 1000u);
  EXPECT_GT(attacked.report.successful_polls, baseline.report.successful_polls * 9 / 10);
}

TEST(AdmissionFloodIntegrationTest, RefractoryPeriodsBurnAndVerificationWasted) {
  ScenarioConfig config = small_config();
  config.enable_damage = false;
  config.duration = sim::SimTime::months(6);
  config.adversary = {{.kind = adversary::PhaseKind::kAdmissionFlood,
                       .cadence = {.attack_duration = sim::SimTime::days(170),
                                   .recuperation = sim::SimTime::days(30),
                                   .coverage = 1.0}}};
  const RunResult attacked = run_scenario(config);
  // Garbage that passes the coin flip is detected only at verification.
  const uint64_t verified_garbage = attacked.admission_verdicts[static_cast<size_t>(
      protocol::AdmissionVerdict::kBadIntroEffort)];
  EXPECT_GT(verified_garbage, 50u);
  // The refractory period caps costed consideration of unknown-sender
  // garbage at about one per victim per AU per day (§6.3).
  const uint64_t refractory_ceiling = 30u * 2u * 181u;
  EXPECT_LT(verified_garbage, refractory_ceiling * 12 / 10);
  // The overwhelming majority of garbage dies in the free random-drop or
  // refractory stages. The insider-informed adversary probes only outside
  // refractory windows, so the floor is the 9:1 unknown-sender drop ratio
  // (0.90 drop probability); loyal invitations bounced by hot refractory
  // periods add to it.
  EXPECT_GT(attacked.admission_verdicts[static_cast<size_t>(
                protocol::AdmissionVerdict::kRandomDrop)] +
                attacked.admission_verdicts[static_cast<size_t>(
                    protocol::AdmissionVerdict::kRefractoryReject)],
            5 * verified_garbage);
}

TEST(BruteForceIntegrationTest, FullParticipationRaisesFriction) {
  // §7.4/Table 1: the NONE strategy roughly doubles loyal effort per
  // successful poll but barely moves access failure.
  ScenarioConfig config = small_config();
  config.enable_damage = false;
  config.duration = sim::SimTime::months(9);
  config.adversary = {{.kind = adversary::PhaseKind::kBruteForce,
                       .defection = adversary::DefectionPoint::kNone}};
  const RunResult attacked = run_scenario(config);
  config.adversary.clear();
  const RunResult baseline = run_scenario(config);
  const RelativeMetrics rel = relative_metrics(attacked, baseline);
  EXPECT_GT(attacked.adversary_admissions, 50u);
  EXPECT_GT(rel.friction, 1.2);
  EXPECT_LT(rel.friction, 10.0);
  // Polls still succeed at nearly the baseline rate.
  EXPECT_GT(attacked.report.successful_polls, baseline.report.successful_polls * 8 / 10);
}

TEST(BruteForceIntegrationTest, IntroDefectionWastesLessDefenderEffortThanFull) {
  ScenarioConfig config = small_config();
  config.enable_damage = false;
  config.duration = sim::SimTime::months(9);
  config.adversary = {{.kind = adversary::PhaseKind::kBruteForce,
                       .defection = adversary::DefectionPoint::kIntro}};
  const RunResult intro = run_scenario(config);
  config.adversary[0].defection = adversary::DefectionPoint::kNone;
  const RunResult none = run_scenario(config);
  // Table 1 ordering: INTRO friction < NONE friction.
  EXPECT_LT(intro.report.effort_per_successful_poll, none.report.effort_per_successful_poll);
}

TEST(BruteForceIntegrationTest, CostRatioOrderingMatchesTable1) {
  // Table 1: cost ratio INTRO (1.93) > REMAINING (1.55) >= NONE (1.02): full
  // participation is the adversary's most cost-effective strategy, INTRO
  // desertion its least. Our NONE adversary skips the redundant evaluation
  // hashing (see BruteForceAdversary), so its total effort is the REMAINING
  // adversary's plus only an MBF-verification epsilon, while the defenders
  // additionally serve its repair requests; NONE therefore lands at or just
  // below REMAINING rather than across the paper's wider 1.55 -> 1.02 gap
  // (EXPERIMENTS.md shows the full accounting).
  ScenarioConfig config = small_config();
  config.enable_damage = false;
  config.duration = sim::SimTime::months(9);
  config.adversary = {{.kind = adversary::PhaseKind::kBruteForce}};

  config.adversary[0].defection = adversary::DefectionPoint::kIntro;
  const RunResult intro = run_scenario(config);
  config.adversary[0].defection = adversary::DefectionPoint::kRemaining;
  const RunResult remaining = run_scenario(config);
  config.adversary[0].defection = adversary::DefectionPoint::kNone;
  const RunResult none = run_scenario(config);

  EXPECT_GT(intro.report.cost_ratio, remaining.report.cost_ratio);
  EXPECT_LE(none.report.cost_ratio, remaining.report.cost_ratio * 1.05);
  EXPECT_LT(none.report.cost_ratio, intro.report.cost_ratio);
  // Harm side of the same table: desertion at INTRO wastes the least loyal
  // effort per successful poll, full participation at least as much as
  // REMAINING.
  EXPECT_GT(remaining.report.effort_per_successful_poll,
            intro.report.effort_per_successful_poll);
  EXPECT_GE(none.report.effort_per_successful_poll,
            remaining.report.effort_per_successful_poll * 0.95);
}

TEST(BruteForceIntegrationTest, AdmissionsRateLimitedByRefractory) {
  ScenarioConfig config = small_config();
  config.enable_damage = false;
  config.duration = sim::SimTime::months(3);
  config.adversary = {{.kind = adversary::PhaseKind::kBruteForce,
                       .defection = adversary::DefectionPoint::kNone}};
  const RunResult attacked = run_scenario(config);
  // Ceiling: one unknown/debt admission per victim per AU per refractory
  // day => 30 peers x 2 AUs x ~90 days.
  const uint64_t ceiling = 30u * 2u * 92u;
  EXPECT_LT(attacked.adversary_admissions, ceiling);
  EXPECT_GT(attacked.adversary_admissions, ceiling / 8);
  // ~5 tries per admission (0.2 admission probability).
  const double tries_per_admission =
      static_cast<double>(attacked.adversary_invitations) /
      static_cast<double>(attacked.adversary_admissions);
  EXPECT_GT(tries_per_admission, 2.5);
  EXPECT_LT(tries_per_admission, 10.0);
}

TEST(LayeredRunTest, LayersRunAndCombine) {
  ScenarioConfig config = small_config();
  config.enable_damage = false;
  config.peer_count = 15;
  config.au_count = 2;
  config.duration = sim::SimTime::months(6);
  const auto layers = run_layered(config, 3);
  ASSERT_EQ(layers.size(), 3u);
  for (const auto& layer : layers) {
    EXPECT_GT(layer.report.successful_polls, 0u);
  }
  const RunResult combined = combine_results(layers);
  EXPECT_EQ(combined.report.successful_polls, layers[0].report.successful_polls +
                                                  layers[1].report.successful_polls +
                                                  layers[2].report.successful_polls);
  EXPECT_GT(combined.report.effort_per_successful_poll, 0.0);
}

}  // namespace
}  // namespace lockss::experiment
