// Protocol event trace determinism matrix (docs/observability.md).
//
// The tracing contract has two halves, both pinned here:
//   * disabled (the default), every hook is an inert null check — a traced
//     build produces byte-for-byte the untraced RunResult, so the golden
//     corpus never notices the subsystem exists;
//   * enabled, the canonical trace is itself bit-identical at every shard
//     count — the serialized bytes at shards 1, 2, 4, and 8 are equal, the
//     same way the scalar metrics are (tests/sharding_identity_test.cpp).
// The matrix scenario deliberately turns everything on at once — churn,
// operator policies, link faults, and a windowed adversary — so every hook
// class (poller, voter, churn, operator, fault) emits into the same trace.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "campaign/json.hpp"
#include "experiment/scenario.hpp"
#include "obs/event.hpp"
#include "obs/event_log.hpp"
#include "obs/export.hpp"

namespace lockss::experiment {
namespace {

// The golden corpus deployment with every dynamic subsystem enabled: the
// densest hook coverage the harness can produce at test scale.
ScenarioConfig everything_config() {
  ScenarioConfig config;
  config.peer_count = 12;
  config.au_count = 2;
  config.duration = sim::SimTime::days(400);
  config.seed = 20250730;
  config.damage.mean_disk_years_between_failures = 0.2;
  config.damage.aus_per_disk = config.au_count;
  config.adversary = {{.kind = adversary::PhaseKind::kPipeStoppage,
                       .cadence = {.attack_duration = sim::SimTime::days(30),
                                   .recuperation = sim::SimTime::days(15),
                                   .coverage = 0.5}}};
  config.churn.leave_rate_per_peer_year = 1.0;
  config.churn.crash_rate_per_peer_year = 0.5;
  config.churn.mean_downtime_days = 6.0;
  config.churn.arrival_rate_per_year = 2.0;
  config.operators.detection_latency = sim::SimTime::days(2);
  config.operators.policies.push_back(
      {dynamics::OperatorTrigger::kAlarm, dynamics::OperatorAction::kAuRecrawl, 1.0});
  config.faults.loss_rate = 0.10;
  config.faults.jitter = sim::SimTime::milliseconds(10);
  config.obs_trace.enabled = true;
  return config;
}

// Scalar results must match exactly whether or not the trace rode along;
// spot-check the fields most sensitive to perturbation.
void expect_same_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.report.access_failure_probability, b.report.access_failure_probability);
  EXPECT_EQ(a.report.successful_polls, b.report.successful_polls);
  EXPECT_EQ(a.report.loyal_effort_seconds, b.report.loyal_effort_seconds);
  EXPECT_EQ(a.polls_started, b.polls_started);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.churn_departures, b.churn_departures);
  EXPECT_EQ(a.faults_lost, b.faults_lost);
  EXPECT_EQ(a.ack_timeouts, b.ack_timeouts);
}

TEST(ObsTraceTest, DisabledTracingChangesNothing) {
  ScenarioConfig config = everything_config();
  config.obs_trace.enabled = false;
  const RunResult untraced = run_scenario(config);
  EXPECT_FALSE(untraced.obs_events.enabled);
  EXPECT_TRUE(untraced.obs_events.events.empty());

  // Tracing consumes no RNG (sampling is a pure hash), so the traced run
  // must reproduce the untraced one exactly.
  config.obs_trace.enabled = true;
  const RunResult traced = run_scenario(config);
  EXPECT_TRUE(traced.obs_events.enabled);
  EXPECT_FALSE(traced.obs_events.events.empty());
  expect_same_run(untraced, traced);
}

TEST(ObsTraceTest, TraceBytesIdenticalAcrossShardCounts) {
  ScenarioConfig config = everything_config();
  config.shards = 1;
  const RunResult serial = run_scenario(config);
  ASSERT_TRUE(serial.obs_events.enabled);
  ASSERT_GT(serial.obs_events.events.size(), 100u);
  EXPECT_EQ(serial.obs_events.dropped, 0u);
  std::string serial_bytes;
  obs::serialize_trace(serial.obs_events, &serial_bytes);

  for (uint32_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    config.shards = shards;
    const RunResult sharded = run_scenario(config);
    expect_same_run(serial, sharded);
    std::string sharded_bytes;
    obs::serialize_trace(sharded.obs_events, &sharded_bytes);
    EXPECT_EQ(serial_bytes, sharded_bytes);
  }
}

TEST(ObsTraceTest, KindMaskFiltersDeterministically) {
  // A poll-only mask at two shard counts: still byte-identical, and every
  // surviving event is a poll-domain kind.
  ScenarioConfig config = everything_config();
  config.obs_trace.kind_mask = obs::kMaskPoll;
  config.shards = 1;
  const RunResult serial = run_scenario(config);
  ASSERT_FALSE(serial.obs_events.events.empty());
  for (const obs::Event& e : serial.obs_events.events) {
    EXPECT_NE(obs::kind_bit(e.kind) & obs::kMaskPoll, 0u);
  }
  std::string serial_bytes;
  obs::serialize_trace(serial.obs_events, &serial_bytes);
  config.shards = 4;
  const RunResult sharded = run_scenario(config);
  std::string sharded_bytes;
  obs::serialize_trace(sharded.obs_events, &sharded_bytes);
  EXPECT_EQ(serial_bytes, sharded_bytes);
}

TEST(ObsTraceTest, SamplingIsDeterministicAcrossShardCounts) {
  // Hash-based sampling keeps a strict, shard-invariant subset: the same
  // events survive at every shard count, and fewer than at rate 1.0.
  ScenarioConfig config = everything_config();
  config.obs_trace.sample_rate = 0.5;
  config.shards = 1;
  const RunResult serial = run_scenario(config);
  ASSERT_FALSE(serial.obs_events.events.empty());
  std::string serial_bytes;
  obs::serialize_trace(serial.obs_events, &serial_bytes);

  config.shards = 4;
  const RunResult sharded = run_scenario(config);
  std::string sharded_bytes;
  obs::serialize_trace(sharded.obs_events, &sharded_bytes);
  EXPECT_EQ(serial_bytes, sharded_bytes);

  config.shards = 1;
  config.obs_trace.sample_rate = 1.0;
  const RunResult full = run_scenario(config);
  EXPECT_LT(serial.obs_events.events.size(), full.obs_events.events.size());
  expect_same_run(serial, full);  // sampling never perturbs the simulation
}

TEST(ObsTraceTest, RingOverflowCountsDrops) {
  // A tiny per-sink ring must overflow on this workload; the drop counter
  // accounts for every event the ring refused, and re-running reproduces
  // the identical truncated trace (determinism within one shard count).
  ScenarioConfig config = everything_config();
  config.obs_trace.ring_capacity = 8;
  config.shards = 1;
  const RunResult first = run_scenario(config);
  EXPECT_GT(first.obs_events.dropped, 0u);
  const RunResult second = run_scenario(config);
  EXPECT_EQ(first.obs_events, second.obs_events);

  config.obs_trace.ring_capacity = 0;
  const RunResult unbounded = run_scenario(config);
  EXPECT_EQ(unbounded.obs_events.dropped, 0u);
  EXPECT_EQ(first.obs_events.events.size() + first.obs_events.dropped,
            unbounded.obs_events.events.size());
}

TEST(ObsTraceTest, BinaryRoundTrip) {
  ScenarioConfig config = everything_config();
  config.duration = sim::SimTime::days(120);
  const RunResult r = run_scenario(config);
  ASSERT_FALSE(r.obs_events.events.empty());

  std::string bytes;
  obs::serialize_trace(r.obs_events, &bytes);
  obs::EventTrace back;
  std::string error;
  ASSERT_TRUE(obs::deserialize_trace(bytes, &back, &error)) << error;
  EXPECT_EQ(back, r.obs_events);

  // Header guards: a truncated or wrong-magic blob is a diagnosed error,
  // not garbage events.
  obs::EventTrace junk;
  EXPECT_FALSE(obs::deserialize_trace(bytes.substr(0, bytes.size() - 3), &junk, &error));
  std::string corrupt = bytes;
  corrupt[0] ^= 0x5A;
  EXPECT_FALSE(obs::deserialize_trace(corrupt, &junk, &error));
}

TEST(ObsTraceTest, CanonicalOrderIsSorted) {
  const RunResult r = run_scenario(everything_config());
  const auto& events = r.obs_events.events;
  ASSERT_GT(events.size(), 1u);
  for (size_t k = 1; k < events.size(); ++k) {
    const obs::Event& a = events[k - 1];
    const obs::Event& b = events[k];
    const bool ordered =
        a.time_ns < b.time_ns ||
        (a.time_ns == b.time_ns &&
         (a.domain < b.domain || (a.domain == b.domain && a.origin <= b.origin)));
    EXPECT_TRUE(ordered) << "event " << k << " out of canonical order";
  }
}

TEST(ObsTraceTest, CsvExportHasHeaderAndOneRowPerEvent) {
  ScenarioConfig config = everything_config();
  config.duration = sim::SimTime::days(120);
  const RunResult r = run_scenario(config);
  std::ostringstream out;
  obs::write_csv(out, r.obs_events.events);
  const std::string csv = out.str();
  EXPECT_EQ(csv.rfind("time_ns,kind,domain,origin,other,au,poll,arg\n", 0), 0u);
  size_t lines = 0;
  for (char c : csv) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, r.obs_events.events.size() + 1);
}

TEST(ObsTraceTest, PerfettoExportIsWellFormedJson) {
  ScenarioConfig config = everything_config();
  config.duration = sim::SimTime::days(120);
  const RunResult r = run_scenario(config);
  ASSERT_FALSE(r.obs_events.events.empty());
  std::ostringstream out;
  obs::write_perfetto_json(out, r.obs_events.events);

  campaign::Json parsed;
  std::string error;
  ASSERT_TRUE(campaign::parse_json(out.str(), &parsed, &error)) << error;
  ASSERT_TRUE(parsed.is_object());
  const campaign::Json* trace_events = parsed.find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());
  EXPECT_FALSE(trace_events->array_items.empty());
  // Spot-check the trace-event schema on the first entry.
  const campaign::Json& first = trace_events->array_items.front();
  ASSERT_TRUE(first.is_object());
  EXPECT_NE(first.find("ph"), nullptr);
  EXPECT_NE(first.find("ts"), nullptr);
  EXPECT_NE(first.find("name"), nullptr);
}

TEST(ObsTraceTest, EventKindNamesRoundTrip) {
  for (size_t k = 0; k < obs::kEventKindCount; ++k) {
    const auto kind = static_cast<obs::EventKind>(k);
    obs::EventKind back;
    ASSERT_TRUE(obs::parse_event_kind(obs::event_kind_name(kind), &back))
        << obs::event_kind_name(kind);
    EXPECT_EQ(back, kind);
  }
  obs::EventKind ignored;
  EXPECT_FALSE(obs::parse_event_kind("not_a_kind", &ignored));
}

}  // namespace
}  // namespace lockss::experiment
