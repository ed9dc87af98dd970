// Determinism under parallelism: the same (config, seed) grid must produce
// bit-identical RunResult vectors whatever the worker count, because each
// run is a pure function of its config and the runner only reorders *when*
// jobs execute, never *what* they compute. Doubles are compared with exact
// equality on purpose — any tolerance would hide cross-thread contamination.
#include "experiment/runner.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "experiment/aggregate.hpp"
#include "experiment/scenario.hpp"

namespace lockss::experiment {
namespace {

ScenarioConfig small_config(uint64_t seed) {
  ScenarioConfig config;
  config.peer_count = 12;
  config.au_count = 2;
  // Long enough for several poll cycles (inter_poll_interval is 3 months),
  // so polls, votes, repairs, and damage all actually happen.
  config.duration = sim::SimTime::days(400);
  config.seed = seed;
  return config;
}

void expect_identical_traces(const metrics::RunTrace& a, const metrics::RunTrace& b) {
  EXPECT_EQ(a.interval, b.interval);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (size_t k = 0; k < a.points.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(a.points[k].t, b.points[k].t);
    EXPECT_EQ(a.points[k].damaged_fraction, b.points[k].damaged_fraction);
    EXPECT_EQ(a.points[k].afp_to_date, b.points[k].afp_to_date);
    EXPECT_EQ(a.points[k].successful_polls, b.points[k].successful_polls);
    EXPECT_EQ(a.points[k].inquorate_polls, b.points[k].inquorate_polls);
    EXPECT_EQ(a.points[k].alarms, b.points[k].alarms);
    EXPECT_EQ(a.points[k].repairs, b.points[k].repairs);
    EXPECT_EQ(a.points[k].loyal_effort_seconds, b.points[k].loyal_effort_seconds);
    EXPECT_EQ(a.points[k].adversary_effort_seconds, b.points[k].adversary_effort_seconds);
    // Catch-all via the defaulted operator==: a field added to TracePoint
    // later is covered even if the per-field EXPECTs above lag behind.
    EXPECT_TRUE(a.points[k] == b.points[k]);
  }
}

void expect_identical(const RunResult& a, const RunResult& b) {
  expect_identical_traces(a.trace, b.trace);
  EXPECT_EQ(a.report.access_failure_probability, b.report.access_failure_probability);
  EXPECT_EQ(a.report.mean_success_gap_days, b.report.mean_success_gap_days);
  EXPECT_EQ(a.report.mean_observed_gap_days, b.report.mean_observed_gap_days);
  EXPECT_EQ(a.report.successful_polls, b.report.successful_polls);
  EXPECT_EQ(a.report.inquorate_polls, b.report.inquorate_polls);
  EXPECT_EQ(a.report.alarms, b.report.alarms);
  EXPECT_EQ(a.report.repairs, b.report.repairs);
  EXPECT_EQ(a.report.damage_events, b.report.damage_events);
  EXPECT_EQ(a.report.loyal_effort_seconds, b.report.loyal_effort_seconds);
  EXPECT_EQ(a.report.adversary_effort_seconds, b.report.adversary_effort_seconds);
  EXPECT_EQ(a.report.effort_per_successful_poll, b.report.effort_per_successful_poll);
  EXPECT_EQ(a.report.cost_ratio, b.report.cost_ratio);
  EXPECT_EQ(a.polls_started, b.polls_started);
  EXPECT_EQ(a.solicitations_sent, b.solicitations_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.messages_filtered, b.messages_filtered);
  EXPECT_EQ(a.adversary_invitations, b.adversary_invitations);
  EXPECT_EQ(a.adversary_admissions, b.adversary_admissions);
  EXPECT_EQ(a.admission_verdicts, b.admission_verdicts);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
  // Deployment-dynamics accounting (PR 5); defaults on static grids, but
  // covered here so a future grid with churn cannot silently escape.
  EXPECT_EQ(a.churn_departures, b.churn_departures);
  EXPECT_EQ(a.churn_recoveries, b.churn_recoveries);
  EXPECT_EQ(a.churn_arrivals, b.churn_arrivals);
  EXPECT_EQ(a.availability_mean, b.availability_mean);
  EXPECT_EQ(a.mean_recovery_days, b.mean_recovery_days);
  EXPECT_EQ(a.operator_interventions, b.operator_interventions);
}

TEST(ParallelRunnerTest, OneWorkerMatchesManyWorkersBitExactly) {
  // A mixed grid: baseline, pipe stoppage, and brute force, across seeds.
  std::vector<ScenarioConfig> grid;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    grid.push_back(small_config(seed));
    ScenarioConfig pipe = small_config(seed);
    pipe.adversary = {{.kind = adversary::PhaseKind::kPipeStoppage,
                       .cadence = {.attack_duration = sim::SimTime::days(10),
                                   .recuperation = sim::SimTime::days(5),
                                   .coverage = 0.5}}};
    grid.push_back(pipe);
    ScenarioConfig brute = small_config(seed);
    brute.adversary = {{.kind = adversary::PhaseKind::kBruteForce}};
    grid.push_back(brute);
  }

  const auto serial = ParallelRunner(1).run(grid);
  const auto parallel = ParallelRunner(4).run(grid);
  ASSERT_EQ(serial.size(), grid.size());
  ASSERT_EQ(parallel.size(), grid.size());
  // Guard against a vacuous pass: the scenarios must have done real work.
  EXPECT_GT(serial[0].polls_started, 0u);
  EXPECT_GT(serial[0].events_processed, 0u);
  for (size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(ParallelRunnerTest, AdversaryGridsBitIdenticalAcross1And2And8Workers) {
  // PR 1 pinned determinism on baseline-style grids only; adversary runs
  // drive different event mixes (attack schedules, minion identities,
  // flood messages) and traces add sampling events, so pin those too. One
  // grid spanning every adversary family plus churn and tracing, executed
  // under 1, 2, and 8 workers: all three result vectors must match bit for
  // bit, including every trace point.
  std::vector<ScenarioConfig> grid;
  for (uint64_t seed = 3; seed <= 4; ++seed) {
    ScenarioConfig admission = small_config(seed);
    admission.adversary = {{.kind = adversary::PhaseKind::kAdmissionFlood,
                            .cadence = {.attack_duration = sim::SimTime::days(20),
                                        .recuperation = sim::SimTime::days(10),
                                        .coverage = 1.0}}};
    grid.push_back(admission);
    ScenarioConfig vote_flood = small_config(seed);
    vote_flood.adversary = {{.kind = adversary::PhaseKind::kVoteFlood}};
    grid.push_back(vote_flood);
    ScenarioConfig churn = small_config(seed);
    churn.newcomer_count = 3;
    churn.newcomer_join_window = sim::SimTime::days(200);
    grid.push_back(churn);
    ScenarioConfig combined = small_config(seed);
    combined.adversary = {{.kind = adversary::PhaseKind::kPipeStoppage,
                           .cadence = {.attack_duration = sim::SimTime::days(15),
                                       .recuperation = sim::SimTime::days(15),
                                       .coverage = 0.4}},
                          {.kind = adversary::PhaseKind::kBruteForce}};
    grid.push_back(combined);
  }
  for (ScenarioConfig& config : grid) {
    config.trace_interval = sim::SimTime::days(30);
  }

  const auto one = ParallelRunner(1).run(grid);
  const auto two = ParallelRunner(2).run(grid);
  const auto eight = ParallelRunner(8).run(grid);
  ASSERT_EQ(one.size(), grid.size());
  ASSERT_EQ(two.size(), grid.size());
  ASSERT_EQ(eight.size(), grid.size());
  // Guard against vacuous passes: adversaries must actually have engaged,
  // and traces must carry samples.
  EXPECT_GT(one[0].adversary_invitations, 0u);
  EXPECT_GT(one[1].adversary_invitations, 0u);
  ASSERT_TRUE(one[0].trace.enabled());
  EXPECT_GT(one[0].trace.points.size(), 1u);
  for (size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(one[i], two[i]);
    expect_identical(one[i], eight[i]);
  }
}

TEST(ParallelRunnerTest, LayeredCampaignGridBitIdenticalSerialVsParallel) {
  // run_layered_grid fans §6.3 layered *campaigns* across workers while
  // keeping the layers inside each campaign sequential (they thread the
  // accumulated busy schedule through). The fan-out must not change what
  // any layer computes: serial and parallel grids must match bit for bit,
  // and each campaign must equal a direct run_layered of its config.
  std::vector<ScenarioConfig> campaigns;
  campaigns.push_back(small_config(21));
  ScenarioConfig brute = small_config(22);
  brute.adversary = {{.kind = adversary::PhaseKind::kBruteForce}};
  campaigns.push_back(brute);
  ScenarioConfig pipe = small_config(23);
  pipe.adversary = {{.kind = adversary::PhaseKind::kPipeStoppage,
                     .cadence = {.attack_duration = sim::SimTime::days(10),
                                 .recuperation = sim::SimTime::days(5),
                                 .coverage = 0.5}}};
  campaigns.push_back(pipe);

  constexpr uint32_t kLayers = 3;
  const auto serial = ParallelRunner(1).run_layered_grid(campaigns, kLayers);
  const auto parallel = ParallelRunner(4).run_layered_grid(campaigns, kLayers);
  ASSERT_EQ(serial.size(), campaigns.size());
  ASSERT_EQ(parallel.size(), campaigns.size());
  // Guard against a vacuous pass: layering must have injected background
  // load, which makes later layers measurably busier than a fresh run.
  EXPECT_GT(serial[0][0].polls_started, 0u);
  for (size_t c = 0; c < campaigns.size(); ++c) {
    SCOPED_TRACE(c);
    ASSERT_EQ(serial[c].size(), kLayers);
    ASSERT_EQ(parallel[c].size(), kLayers);
    const auto direct = run_layered(campaigns[c], kLayers);
    for (uint32_t layer = 0; layer < kLayers; ++layer) {
      SCOPED_TRACE(layer);
      expect_identical(serial[c][layer], parallel[c][layer]);
      expect_identical(serial[c][layer], direct[layer]);
    }
  }
}

TEST(ParallelRunnerTest, ResultsComeBackInJobOrder) {
  // Different seeds give different poll counts; job order must survive any
  // completion order, so results[i] must match a dedicated serial run of
  // jobs[i].
  std::vector<ScenarioConfig> grid;
  for (uint64_t seed = 10; seed < 16; ++seed) {
    grid.push_back(small_config(seed));
  }
  const auto results = ParallelRunner(3).run(grid);
  ASSERT_EQ(results.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(results[i], run_scenario(grid[i]));
  }
}

TEST(ParallelRunnerTest, RunReplicatedUsesSeedOrder) {
  const ScenarioConfig base = small_config(7);
  const auto runs = run_replicated(base, 3);
  ASSERT_EQ(runs.size(), 3u);
  for (uint32_t s = 0; s < 3; ++s) {
    SCOPED_TRACE(s);
    ScenarioConfig c = base;
    c.seed = base.seed + s;
    expect_identical(runs[s], run_scenario(c));
  }
}

TEST(ParallelRunnerTest, WorkerCountSelection) {
  EXPECT_GE(ParallelRunner::default_workers(), 1u);
  ParallelRunner::set_default_workers(3);
  EXPECT_EQ(ParallelRunner::default_workers(), 3u);
  EXPECT_EQ(ParallelRunner().workers(), 3u);
  ParallelRunner::set_default_workers(0);
  EXPECT_GE(ParallelRunner::default_workers(), 1u);
  EXPECT_EQ(ParallelRunner(5).workers(), 5u);
}

TEST(ParallelRunnerTest, EmptyGridIsFine) {
  EXPECT_TRUE(ParallelRunner(4).run({}).empty());
}

}  // namespace
}  // namespace lockss::experiment
