// Adversary pipeline model: phase-window semantics and validation.
//
// Every adversary is a pipeline installed through adversary::AdversaryFleet,
// and the golden corpus pins single-phase pipelines bit for bit. These
// tests pin what only windows and phase mixes express: a stop that
// disarms, a start that delays, concurrent phases that both engage, and
// validate_pipeline's diagnostics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adversary/pipeline.hpp"
#include "experiment/scenario.hpp"

namespace lockss::experiment {
namespace {

ScenarioConfig small_config(uint64_t seed) {
  ScenarioConfig config;
  config.peer_count = 12;
  config.au_count = 2;
  config.duration = sim::SimTime::days(220);
  config.seed = seed;
  config.trace_interval = sim::SimTime::days(30);
  config.damage.mean_disk_years_between_failures = 0.2;
  config.damage.aus_per_disk = 2.0;
  return config;
}

TEST(AdversaryPipelineTest, StopWindowDisarmsTheAttack) {
  // Vote flood for the first 60 days only: strictly fewer bogus votes than
  // a full-run flood, and identical to it in the window's interior is not
  // required — only that the tap actually closes.
  ScenarioConfig full = small_config(3);
  adversary::AdversaryPhase flood;
  flood.kind = adversary::PhaseKind::kVoteFlood;
  full.adversary = {flood};
  const RunResult full_run = run_scenario(full);

  ScenarioConfig windowed = full;
  windowed.adversary[0].stop = sim::SimTime::days(60);
  const RunResult windowed_run = run_scenario(windowed);

  EXPECT_GT(full_run.adversary_invitations, 0u);
  EXPECT_GT(windowed_run.adversary_invitations, 0u);
  EXPECT_LT(windowed_run.adversary_invitations, full_run.adversary_invitations / 2);
}

TEST(AdversaryPipelineTest, StartDelaysTheAttack) {
  // A pipe stoppage that only exists in the last quarter filters fewer
  // messages than one running from day zero.
  ScenarioConfig early = small_config(4);
  adversary::AdversaryPhase stoppage;
  stoppage.kind = adversary::PhaseKind::kPipeStoppage;
  stoppage.cadence.attack_duration = sim::SimTime::days(30);
  stoppage.cadence.recuperation = sim::SimTime::days(10);
  stoppage.cadence.coverage = 1.0;
  early.adversary = {stoppage};
  const RunResult early_run = run_scenario(early);

  ScenarioConfig late = early;
  late.adversary[0].start = sim::SimTime::days(165);
  const RunResult late_run = run_scenario(late);

  EXPECT_GT(early_run.messages_filtered, 0u);
  EXPECT_GT(late_run.messages_filtered, 0u);
  EXPECT_LT(late_run.messages_filtered, early_run.messages_filtered);
}

TEST(AdversaryPipelineTest, ConcurrentPhasesBothEngage) {
  // Pipe stoppage + vote flood running together: the blackout filters
  // messages while the flood keeps spraying (counted via invitations).
  ScenarioConfig config = small_config(5);
  adversary::AdversaryPhase stoppage;
  stoppage.kind = adversary::PhaseKind::kPipeStoppage;
  stoppage.cadence.attack_duration = sim::SimTime::days(20);
  stoppage.cadence.recuperation = sim::SimTime::days(20);
  stoppage.cadence.coverage = 0.5;
  adversary::AdversaryPhase flood;
  flood.kind = adversary::PhaseKind::kVoteFlood;
  config.adversary = {stoppage, flood};
  const RunResult result = run_scenario(config);
  EXPECT_GT(result.messages_filtered, 0u);
  EXPECT_GT(result.adversary_invitations, 0u);
}

TEST(AdversaryPipelineTest, ValidatePipelineDiagnostics) {
  adversary::AdversaryPipeline pipeline;
  adversary::AdversaryPhase a;
  a.kind = adversary::PhaseKind::kBruteForce;
  adversary::AdversaryPhase b;
  b.kind = adversary::PhaseKind::kBruteForce;
  pipeline = {a, b};
  EXPECT_NE(adversary::validate_pipeline(pipeline, 100).find("overlapping"),
            std::string::npos);

  b.minion_id_base = 1u << 26;
  pipeline = {a, b};
  EXPECT_TRUE(adversary::validate_pipeline(pipeline, 100).empty());

  adversary::AdversaryPhase bad_window;
  bad_window.kind = adversary::PhaseKind::kVoteFlood;
  bad_window.start = sim::SimTime::days(10);
  bad_window.stop = sim::SimTime::days(5);
  EXPECT_NE(adversary::validate_pipeline({bad_window}, 100).find("stop"), std::string::npos);

  adversary::AdversaryPhase bad_coverage;
  bad_coverage.kind = adversary::PhaseKind::kPipeStoppage;
  bad_coverage.cadence.coverage = 1.5;
  EXPECT_NE(adversary::validate_pipeline({bad_coverage}, 100).find("coverage"),
            std::string::npos);

  adversary::AdversaryPhase low_pool;
  low_pool.kind = adversary::PhaseKind::kVoteFlood;
  low_pool.minion_id_base = 10;
  EXPECT_NE(adversary::validate_pipeline({low_pool}, 100).find("id space"), std::string::npos);
}

}  // namespace
}  // namespace lockss::experiment
