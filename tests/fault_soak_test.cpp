// Loss-fuzz soak: protocol liveness under arbitrary unreliable networks.
//
// 50 seeded random fault configurations — loss up to 50%, duplication,
// delivery jitter, burst episodes — composed with session churn and one
// pipe-stoppage adversary. Whatever the network does, every protocol
// session must reach a terminal state within a bounded horizon: no stale
// sessions, no schedule reservations leaked past the audit horizon
// (RunResult's harvest-time liveness audit, docs/faults.md). A sampled
// subset replays to bit-identical results, pinning that the fuzz
// configurations themselves stay deterministic.
//
// Labelled `faults` in CMake so the CI sanitizer matrix runs it by name:
// lossy teardown (duplicate receipts after session conclusion, timeouts
// racing delivery) is exactly where lifetime bugs would live.
#include <gtest/gtest.h>

#include <string>

#include "experiment/scenario.hpp"
#include "sim/rng.hpp"

namespace lockss::experiment {
namespace {

// Small enough that 50 runs stay in CI budget, long enough that the
// ~3-month poll cycle turns over several times past the audit horizon.
ScenarioConfig soak_base() {
  ScenarioConfig config;
  config.peer_count = 12;
  config.au_count = 2;
  config.duration = sim::SimTime::days(300);
  config.damage.mean_disk_years_between_failures = 0.5;
  config.damage.aus_per_disk = config.au_count;
  // Session churn keeps joining/leaving peers in the mix...
  config.churn.leave_rate_per_peer_year = 1.0;
  config.churn.crash_rate_per_peer_year = 0.5;
  config.churn.mean_downtime_days = 7.0;
  config.churn.arrival_rate_per_year = 2.0;
  // ...and one adversary stresses the invitation path while links flap.
  config.adversary = {{.kind = adversary::PhaseKind::kPipeStoppage,
                       .cadence = {.attack_duration = sim::SimTime::days(20),
                                   .recuperation = sim::SimTime::days(25),
                                   .coverage = 0.5}}};
  return config;
}

net::FaultConfig random_faults(sim::Rng& rng) {
  net::FaultConfig faults;
  faults.loss_rate = rng.uniform() * 0.5;
  faults.dup_rate = rng.uniform() * 0.10;
  faults.jitter = sim::SimTime::milliseconds(static_cast<int64_t>(rng.index(150)));
  if (rng.bernoulli(0.5)) {
    faults.burst_outage_rate = rng.uniform() * 0.3;
    faults.burst_cycle = sim::SimTime::days(0.5 + rng.uniform() * 2.5);
  }
  return faults;
}

void expect_clean_teardown(const RunResult& result, const std::string& label) {
  SCOPED_TRACE(label);
  // Young live sessions at the cut are fine; sessions older than the audit
  // horizon or reservations stretching past it are leaks.
  EXPECT_EQ(result.stale_sessions_at_end, 0u);
  EXPECT_EQ(result.reservations_beyond_horizon, 0u);
  // Every abort must be accounted to a named reason: the sum over the
  // taxonomy equals the number of concluded polls.
  uint64_t concluded = 0;
  for (uint64_t count : result.polls_aborted) {
    concluded += count;
  }
  EXPECT_EQ(concluded, result.report.successful_polls + result.report.inquorate_polls +
                           result.report.alarms);
}

TEST(FaultSoakTest, FiftyRandomFaultConfigsTearDownCleanly) {
  sim::Rng fuzz(20260809);
  uint64_t total_faults = 0;
  for (int i = 0; i < 50; ++i) {
    ScenarioConfig config = soak_base();
    config.seed = 7000 + static_cast<uint64_t>(i);
    config.faults = random_faults(fuzz);
    const RunResult result = run_scenario(config);
    expect_clean_teardown(result, "soak config " + std::to_string(i));
    total_faults += result.faults_lost + result.faults_burst_dropped +
                    result.faults_duplicated + result.faults_jittered;
    // Every tenth configuration replays bit-identically: the fuzzed fault
    // model is as deterministic as a hand-written one.
    if (i % 10 == 0) {
      const RunResult replay = run_scenario(config);
      SCOPED_TRACE("replay of soak config " + std::to_string(i));
      EXPECT_EQ(result.report.access_failure_probability,
                replay.report.access_failure_probability);
      EXPECT_EQ(result.report.successful_polls, replay.report.successful_polls);
      EXPECT_EQ(result.faults_lost, replay.faults_lost);
      EXPECT_EQ(result.faults_burst_dropped, replay.faults_burst_dropped);
      EXPECT_EQ(result.faults_duplicated, replay.faults_duplicated);
      EXPECT_EQ(result.faults_jittered, replay.faults_jittered);
      EXPECT_EQ(result.ack_timeouts, replay.ack_timeouts);
      EXPECT_EQ(result.vote_timeouts, replay.vote_timeouts);
      EXPECT_EQ(result.solicitation_retries, replay.solicitation_retries);
      EXPECT_EQ(result.sessions_live_at_end, replay.sessions_live_at_end);
    }
  }
  // The soak must actually have exercised the fault machinery.
  EXPECT_GT(total_faults, 100000u);
}

TEST(FaultSoakTest, PermanentBurstOutageStillTerminatesEverySession) {
  // The nastiest corner: burst_outage_rate = 1 makes every directed link a
  // permanent outage — no message is ever delivered. Every poll must still
  // conclude by timeout and release its slots; the run ends quiet, not
  // leaking.
  ScenarioConfig config = soak_base();
  config.seed = 99;
  config.faults.burst_outage_rate = 1.0;
  const RunResult result = run_scenario(config);
  EXPECT_EQ(result.messages_delivered, 0u);
  EXPECT_EQ(result.report.successful_polls, 0u);
  expect_clean_teardown(result, "permanent outage");
}

}  // namespace
}  // namespace lockss::experiment
