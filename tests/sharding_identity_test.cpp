// Sharded-vs-serial bit-identity matrix (docs/sharding.md).
//
// The sharding contract: a run split across N worker shards produces the
// same RunResult as the serial run, bit for bit, at every shard count —
// every double compared exactly, every counter, every trace point. The one
// excluded field is peak_queue_depth, which under sharding becomes the sum
// of per-queue high-water marks (there is no serial equivalent of a
// per-queue peak; see docs/sharding.md).
//
// The matrix reuses the golden-trace corpus scenarios — the serial arm of
// every comparison is the exact configuration the committed fixtures pin,
// so this test transitively anchors the sharded results to the golden
// corpus: serial == fixture (golden_trace_test) and sharded == serial
// (here) gives sharded == fixture.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/spec.hpp"
#include "experiment/aggregate.hpp"
#include "experiment/scenario.hpp"

namespace lockss::experiment {
namespace {

// Exact equality, doubles included: the contract is bit-identity, not
// tolerance. EXPECT_EQ on doubles compares values exactly.
void expect_identical(const RunResult& serial, const RunResult& sharded,
                      const std::string& label) {
  SCOPED_TRACE(label);
  const metrics::MetricsReport& a = serial.report;
  const metrics::MetricsReport& b = sharded.report;
  EXPECT_EQ(a.access_failure_probability, b.access_failure_probability);
  EXPECT_EQ(a.mean_success_gap_days, b.mean_success_gap_days);
  EXPECT_EQ(a.mean_observed_gap_days, b.mean_observed_gap_days);
  EXPECT_EQ(a.successful_polls, b.successful_polls);
  EXPECT_EQ(a.inquorate_polls, b.inquorate_polls);
  EXPECT_EQ(a.alarms, b.alarms);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.damage_events, b.damage_events);
  EXPECT_EQ(a.loyal_effort_seconds, b.loyal_effort_seconds);
  EXPECT_EQ(a.adversary_effort_seconds, b.adversary_effort_seconds);
  EXPECT_EQ(a.effort_per_successful_poll, b.effort_per_successful_poll);
  EXPECT_EQ(a.cost_ratio, b.cost_ratio);
  EXPECT_EQ(a.duration, b.duration);

  EXPECT_EQ(serial.polls_started, sharded.polls_started);
  EXPECT_EQ(serial.solicitations_sent, sharded.solicitations_sent);
  EXPECT_EQ(serial.messages_delivered, sharded.messages_delivered);
  EXPECT_EQ(serial.messages_filtered, sharded.messages_filtered);
  EXPECT_EQ(serial.adversary_invitations, sharded.adversary_invitations);
  EXPECT_EQ(serial.adversary_admissions, sharded.adversary_admissions);
  EXPECT_EQ(serial.admission_verdicts, sharded.admission_verdicts);
  // Sum over all shard queues == the serial event count, exactly.
  EXPECT_EQ(serial.events_processed, sharded.events_processed);
  // peak_queue_depth deliberately NOT compared (see file comment).
  EXPECT_EQ(serial.churn_departures, sharded.churn_departures);
  EXPECT_EQ(serial.churn_recoveries, sharded.churn_recoveries);
  EXPECT_EQ(serial.churn_arrivals, sharded.churn_arrivals);
  EXPECT_EQ(serial.availability_mean, sharded.availability_mean);
  EXPECT_EQ(serial.mean_recovery_days, sharded.mean_recovery_days);
  EXPECT_EQ(serial.operator_interventions, sharded.operator_interventions);
  // Fault-layer counters: per-sender RNG lanes must make every loss, dup,
  // and jitter decision shard-invariant (docs/faults.md).
  EXPECT_EQ(serial.faults_lost, sharded.faults_lost);
  EXPECT_EQ(serial.faults_burst_dropped, sharded.faults_burst_dropped);
  EXPECT_EQ(serial.faults_duplicated, sharded.faults_duplicated);
  EXPECT_EQ(serial.faults_jittered, sharded.faults_jittered);
  EXPECT_EQ(serial.ack_timeouts, sharded.ack_timeouts);
  EXPECT_EQ(serial.vote_timeouts, sharded.vote_timeouts);
  EXPECT_EQ(serial.solicitation_retries, sharded.solicitation_retries);
  for (size_t r = 0; r < serial.polls_aborted.size(); ++r) {
    SCOPED_TRACE("abort reason " + std::to_string(r));
    EXPECT_EQ(serial.polls_aborted[r], sharded.polls_aborted[r]);
  }
  EXPECT_EQ(serial.sessions_live_at_end, sharded.sessions_live_at_end);
  EXPECT_EQ(serial.stale_sessions_at_end, sharded.stale_sessions_at_end);
  EXPECT_EQ(serial.reservations_beyond_horizon, sharded.reservations_beyond_horizon);

  EXPECT_EQ(serial.trace.interval, sharded.trace.interval);
  ASSERT_EQ(serial.trace.points.size(), sharded.trace.points.size());
  for (size_t k = 0; k < serial.trace.points.size(); ++k) {
    SCOPED_TRACE("trace point " + std::to_string(k));
    const metrics::TracePoint& p = serial.trace.points[k];
    const metrics::TracePoint& q = sharded.trace.points[k];
    EXPECT_EQ(p.t, q.t);
    EXPECT_EQ(p.damaged_fraction, q.damaged_fraction);
    EXPECT_EQ(p.afp_to_date, q.afp_to_date);
    EXPECT_EQ(p.successful_polls, q.successful_polls);
    EXPECT_EQ(p.inquorate_polls, q.inquorate_polls);
    EXPECT_EQ(p.alarms, q.alarms);
    EXPECT_EQ(p.repairs, q.repairs);
    EXPECT_EQ(p.loyal_effort_seconds, q.loyal_effort_seconds);
    EXPECT_EQ(p.adversary_effort_seconds, q.adversary_effort_seconds);
    EXPECT_EQ(p.online_fraction, q.online_fraction);
    EXPECT_EQ(p.departures, q.departures);
    EXPECT_EQ(p.recoveries, q.recoveries);
    EXPECT_EQ(p.mean_recovery_days, q.mean_recovery_days);
    EXPECT_EQ(p.faults_injected, q.faults_injected);
    EXPECT_EQ(p.ack_timeouts, q.ack_timeouts);
    EXPECT_EQ(p.vote_timeouts, q.vote_timeouts);
    EXPECT_EQ(p.solicitation_retries, q.solicitation_retries);
  }
}

void check_shard_counts(ScenarioConfig config, const std::string& name,
                        const std::vector<uint32_t>& shard_counts) {
  config.shards = 1;
  const RunResult serial = run_scenario(config);
  for (uint32_t shards : shard_counts) {
    config.shards = shards;
    const RunResult sharded = run_scenario(config);
    expect_identical(serial, sharded, name + " @ shards=" + std::to_string(shards));
  }
}

// The golden corpus's canonical deployment (tests/golden_trace_test.cpp).
ScenarioConfig canonical_config() {
  ScenarioConfig config;
  config.peer_count = 12;
  config.au_count = 2;
  config.duration = sim::SimTime::days(400);
  config.seed = 20250730;
  config.trace_interval = sim::SimTime::days(25);
  config.damage.mean_disk_years_between_failures = 0.2;
  config.damage.aus_per_disk = config.au_count;
  return config;
}

TEST(ShardingIdentityTest, Baseline) {
  // The full shard ladder on the baseline, including shards=8 where several
  // shards own just one or two peers each.
  check_shard_counts(canonical_config(), "baseline", {2, 4, 8});
}

TEST(ShardingIdentityTest, PipeStoppage) {
  ScenarioConfig config = canonical_config();
  config.adversary = {{.kind = adversary::PhaseKind::kPipeStoppage,
                       .cadence = {.attack_duration = sim::SimTime::days(30),
                                   .recuperation = sim::SimTime::days(15),
                                   .coverage = 0.5}}};
  check_shard_counts(config, "pipe_stoppage", {2});
}

TEST(ShardingIdentityTest, AdmissionFlood) {
  ScenarioConfig config = canonical_config();
  config.adversary = {{.kind = adversary::PhaseKind::kAdmissionFlood,
                       .cadence = {.attack_duration = sim::SimTime::days(20),
                                   .recuperation = sim::SimTime::days(20),
                                   .coverage = 1.0}}};
  check_shard_counts(config, "admission_flood", {2});
}

TEST(ShardingIdentityTest, VoteFlood) {
  ScenarioConfig config = canonical_config();
  config.adversary = {{.kind = adversary::PhaseKind::kVoteFlood}};
  check_shard_counts(config, "vote_flood", {2, 4});
}

TEST(ShardingIdentityTest, Newcomers) {
  ScenarioConfig config = canonical_config();
  config.newcomer_count = 3;
  config.newcomer_join_window = sim::SimTime::days(200);
  check_shard_counts(config, "churn", {2});
}

TEST(ShardingIdentityTest, UnreliableLinks) {
  // All four fault knobs at once, the full shard ladder. This is the test
  // the per-sender-lane design exists to pass: the old mutable-Rng
  // LossLinkFilter rolled its dice in whichever context the send or
  // delivery event landed, so its outcomes changed with the shard count.
  ScenarioConfig config = canonical_config();
  config.faults.loss_rate = 0.10;
  config.faults.dup_rate = 0.02;
  config.faults.jitter = sim::SimTime::milliseconds(20);
  config.faults.burst_outage_rate = 0.05;
  config.faults.burst_cycle = sim::SimTime::days(2.0);
  check_shard_counts(config, "unreliable_links", {2, 4, 8});
}

TEST(ShardingIdentityTest, UnreliableLinksUnderChurnAndAttack) {
  // Faults composed with the other delivery-path inhabitants: the churn
  // OfflineSetFilter and a pipe-stoppage adversary's veto filter. Faults
  // are decided after the vetoes, so the lane-draw sequence depends on
  // which messages survive — that order must itself be shard-invariant.
  ScenarioConfig config = canonical_config();
  config.faults.loss_rate = 0.15;
  config.faults.jitter = sim::SimTime::milliseconds(10);
  config.churn.leave_rate_per_peer_year = 1.0;
  config.churn.crash_rate_per_peer_year = 0.5;
  config.churn.mean_downtime_days = 6.0;
  config.churn.arrival_rate_per_year = 2.0;
  config.adversary = {{.kind = adversary::PhaseKind::kPipeStoppage,
                       .cadence = {.attack_duration = sim::SimTime::days(25),
                                   .recuperation = sim::SimTime::days(20),
                                   .coverage = 0.4}}};
  check_shard_counts(config, "faults_churn_attack", {2, 8});
}

TEST(ShardingIdentityTest, ChurnDynamics) {
  // Session churn + arrivals + operator alarm/recovery policies: exercises
  // the global-actor path (churn model, operator engine) and the barrier
  // alarm deferral at several shard counts.
  ScenarioConfig config = canonical_config();
  config.churn.leave_rate_per_peer_year = 1.5;
  config.churn.crash_rate_per_peer_year = 0.7;
  config.churn.mean_downtime_days = 8.0;
  config.churn.arrival_rate_per_year = 3.0;
  config.operators.detection_latency = sim::SimTime::days(2);
  config.operators.policies.push_back(
      {dynamics::OperatorTrigger::kAlarm, dynamics::OperatorAction::kAuRecrawl, 1.0});
  config.operators.policies.push_back(
      {dynamics::OperatorTrigger::kRecovery, dynamics::OperatorAction::kRekey, 1.0});
  check_shard_counts(config, "churn_dynamics", {2, 4, 8});
}

TEST(ShardingIdentityTest, RegionalOutage) {
  // Correlated regional outages batch many same-instant global mutations
  // (whole NodeId blocks going dark at once) — the hardest case for the
  // (time, shard, sequence) merge key.
  ScenarioConfig config = canonical_config();
  config.adversary = {{.kind = adversary::PhaseKind::kBruteForce}};
  config.churn.regions = 3;
  config.churn.regional_outage_rate_per_year = 3.0;
  config.churn.regional_outage_days = 6.0;
  config.churn.regional_recovery_stagger_hours = 12.0;
  config.churn.regional_state_loss = true;
  check_shard_counts(config, "regional_outage", {2, 4, 8});
}

TEST(ShardingIdentityTest, LayeredBruteForce) {
  // §6.3 layering threads schedule exports between runs; every layer must
  // shard identically for the combined result to match.
  ScenarioConfig config = canonical_config();
  config.adversary = {{.kind = adversary::PhaseKind::kBruteForce}};
  config.shards = 1;
  const std::vector<RunResult> serial_layers = run_layered(config, 2);
  config.shards = 2;
  const std::vector<RunResult> sharded_layers = run_layered(config, 2);
  ASSERT_EQ(serial_layers.size(), sharded_layers.size());
  for (size_t layer = 0; layer < serial_layers.size(); ++layer) {
    expect_identical(serial_layers[layer], sharded_layers[layer],
                     "layered_brute_force layer " + std::to_string(layer));
  }
  expect_identical(combine_results(serial_layers), combine_results(sharded_layers),
                   "layered_brute_force combined");
}

TEST(ShardingIdentityTest, UnsupportedConfigsFallBackToSerial) {
  // An external poll observer forces the serial path (observers expect the
  // serial calling convention); the run must still complete and match.
  ScenarioConfig config = canonical_config();
  // Long enough for the ~3-month poll cycle to conclude at least one poll,
  // so the observer demonstrably fired on the fallback path.
  config.duration = sim::SimTime::months(5);
  EXPECT_TRUE(sharding_supported(config));
  uint64_t observed = 0;
  config.poll_observer = [&observed](net::NodeId, const protocol::PollOutcome&) { ++observed; };
  EXPECT_FALSE(sharding_supported(config));
  config.shards = 4;
  const RunResult with_observer = run_scenario(config);
  config.poll_observer = nullptr;
  config.shards = 1;
  const RunResult serial = run_scenario(config);
  expect_identical(serial, with_observer, "observer fallback");
  EXPECT_GT(observed, 0u);
}

TEST(ShardingIdentityTest, DefaultShardsKnob) {
  // ScenarioConfig.shards = 0 defers to the process-wide default, the knob
  // lockss_campaign --shards sets; the result is still bit-identical, so
  // the knob is a pure execution detail.
  ScenarioConfig config = canonical_config();
  config.duration = sim::SimTime::days(100);
  config.shards = 1;
  const RunResult serial = run_scenario(config);
  set_default_shards(2);
  config.shards = 0;
  const RunResult sharded = run_scenario(config);
  set_default_shards(0);
  expect_identical(serial, sharded, "default_shards knob");
}

// Campaign artifacts are pure functions of the spec; the shard count must
// never reach them. Byte-compare the rendered manifest of the shipped smoke
// campaign between serial and sharded execution.
TEST(ShardingIdentityTest, CampaignManifestBytesInvariantUnderSharding) {
  campaign::Spec spec;
  std::string error;
  ASSERT_TRUE(campaign::load_spec_file(std::string(LOCKSS_SOURCE_DIR) + "/campaigns/smoke.json",
                                       &spec, &error))
      << error;
  campaign::CompiledCampaign compiled;
  ASSERT_TRUE(campaign::compile_campaign(spec, &compiled, &error)) << error;

  campaign::RunOptions options;
  options.quiet = true;
  options.write_outputs = false;

  const auto manifest_with_shards = [&](uint32_t shards) {
    set_default_shards(shards);
    campaign::CampaignOutcome outcome;
    EXPECT_TRUE(campaign::run_campaign(compiled, options, &outcome, &error)) << error;
    set_default_shards(0);
    return campaign::render_manifest(compiled, outcome);
  };
  const std::string serial = manifest_with_shards(1);
  const std::string sharded = manifest_with_shards(2);
  EXPECT_EQ(serial, sharded);
}

}  // namespace
}  // namespace lockss::experiment
