// Golden-trace regression corpus: six small canonical scenarios spanning
// the paper's attack families (plus churn and §6.3 layering), each reduced
// to a full textual fingerprint of its RunResult — every scalar, counter,
// histogram bucket, and trace point, doubles rendered round-trip exactly
// with %.17g — and compared byte-for-byte against fixtures committed under
// tests/golden/. An FNV-1a hash heads each fixture for quick triage.
//
// This pins down, across every future PR: the simulator's end-to-end
// determinism (PR 1's bit-identical contract now has a corpus, not just a
// self-consistency check), the dense metrics collector's accounting, and
// the trace sampler's event stream.
//
// Regenerating after an *intentional* behavior change:
//
//   LOCKSS_REGEN_GOLDEN=1 ./build/golden_trace_test
//
// rewrites the fixtures in the source tree; commit the diff with an
// explanation of why the numbers moved. See docs/metrics.md. The fixtures
// assume one platform/libm (CI and the dev container); a fresh platform
// regenerates once and is then pinned.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/aggregate.hpp"
#include "experiment/scenario.hpp"

namespace lockss::experiment {
namespace {

std::string golden_dir() { return std::string(LOCKSS_SOURCE_DIR) + "/tests/golden/"; }

void append(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s: %.17g\n", key, v);
  out += buf;
}

void append(std::string& out, const char* key, uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s: %" PRIu64 "\n", key, v);
  out += buf;
}

// The full deterministic content of a RunResult, one field per line.
// `dynamic` selects the extended fixture format carrying the dynamics
// accounting; it is a property of the scenario *config* (churn/operators
// enabled), not of what the realized schedule happened to produce, so the
// fixture shape can never flip on a seed tweak and a dynamics-enabled
// scenario pins its dynamics fields even when they are all zero. `faulty`
// gates the unreliable-network extension lines the same way (fault
// counters, robustness counters, abort taxonomy, liveness audit), so the
// pre-fault corpus stays byte-identical with zero regeneration.
std::string fingerprint(const std::string& name, const RunResult& r, bool dynamic,
                        bool faulty = false) {
  std::string out = "scenario: " + name + "\n";
  const metrics::MetricsReport& m = r.report;
  append(out, "duration_days", m.duration.to_days());
  append(out, "access_failure_probability", m.access_failure_probability);
  append(out, "mean_success_gap_days", m.mean_success_gap_days);
  append(out, "mean_observed_gap_days", m.mean_observed_gap_days);
  append(out, "successful_polls", m.successful_polls);
  append(out, "inquorate_polls", m.inquorate_polls);
  append(out, "alarms", m.alarms);
  append(out, "repairs", m.repairs);
  append(out, "damage_events", m.damage_events);
  append(out, "loyal_effort_seconds", m.loyal_effort_seconds);
  append(out, "adversary_effort_seconds", m.adversary_effort_seconds);
  append(out, "effort_per_successful_poll", m.effort_per_successful_poll);
  append(out, "cost_ratio", m.cost_ratio);
  append(out, "polls_started", r.polls_started);
  append(out, "solicitations_sent", r.solicitations_sent);
  append(out, "messages_delivered", r.messages_delivered);
  append(out, "messages_filtered", r.messages_filtered);
  append(out, "adversary_invitations", r.adversary_invitations);
  append(out, "adversary_admissions", r.adversary_admissions);
  for (size_t v = 0; v < r.admission_verdicts.size(); ++v) {
    char key[32];
    std::snprintf(key, sizeof(key), "admission_verdicts[%zu]", v);
    append(out, key, r.admission_verdicts[v]);
  }
  append(out, "events_processed", r.events_processed);
  append(out, "peak_queue_depth", r.peak_queue_depth);
  // Deployment-dynamics accounting is fingerprinted only for dynamic
  // scenarios, so every static fixture in the pre-dynamics corpus stays
  // byte-identical with zero regeneration.
  if (dynamic) {
    append(out, "churn_departures", r.churn_departures);
    append(out, "churn_recoveries", r.churn_recoveries);
    append(out, "churn_arrivals", r.churn_arrivals);
    append(out, "availability_mean", r.availability_mean);
    append(out, "mean_recovery_days", r.mean_recovery_days);
    for (size_t a = 0; a < r.operator_interventions.size(); ++a) {
      char key[40];
      std::snprintf(key, sizeof(key), "operator_interventions[%zu]", a);
      append(out, key, r.operator_interventions[a]);
    }
  }
  if (faulty) {
    append(out, "faults_lost", r.faults_lost);
    append(out, "faults_burst_dropped", r.faults_burst_dropped);
    append(out, "faults_duplicated", r.faults_duplicated);
    append(out, "faults_jittered", r.faults_jittered);
    append(out, "ack_timeouts", r.ack_timeouts);
    append(out, "vote_timeouts", r.vote_timeouts);
    append(out, "solicitation_retries", r.solicitation_retries);
    for (size_t a = 0; a < r.polls_aborted.size(); ++a) {
      char key[32];
      std::snprintf(key, sizeof(key), "polls_aborted[%zu]", a);
      append(out, key, r.polls_aborted[a]);
    }
    append(out, "sessions_live_at_end", r.sessions_live_at_end);
    append(out, "stale_sessions_at_end", r.stale_sessions_at_end);
    append(out, "reservations_beyond_horizon", r.reservations_beyond_horizon);
  }
  append(out, "trace_interval_days", r.trace.interval.to_days());
  append(out, "trace_points", static_cast<uint64_t>(r.trace.points.size()));
  for (size_t k = 0; k < r.trace.points.size(); ++k) {
    const metrics::TracePoint& p = r.trace.points[k];
    char prefix[48];
    std::snprintf(prefix, sizeof(prefix), "trace[%zu]", k);
    std::string row = prefix;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ": t=%.17g damaged=%.17g afp=%.17g success=%" PRIu64 " inquorate=%" PRIu64
                  " alarms=%" PRIu64 " repairs=%" PRIu64 " loyal=%.17g adversary=%.17g\n",
                  p.t.to_days(), p.damaged_fraction, p.afp_to_date, p.successful_polls,
                  p.inquorate_polls, p.alarms, p.repairs, p.loyal_effort_seconds,
                  p.adversary_effort_seconds);
    out += row + buf;
    if (dynamic) {
      std::snprintf(buf, sizeof(buf),
                    "%s: online=%.17g departures=%" PRIu64 " recoveries=%" PRIu64
                    " mean_recovery_days=%.17g\n",
                    prefix, p.online_fraction, p.departures, p.recoveries,
                    p.mean_recovery_days);
      out += buf;
    }
    if (faulty) {
      std::snprintf(buf, sizeof(buf),
                    "%s: faults=%" PRIu64 " ack_timeouts=%" PRIu64 " vote_timeouts=%" PRIu64
                    " solicitation_retries=%" PRIu64 "\n",
                    prefix, p.faults_injected, p.ack_timeouts, p.vote_timeouts,
                    p.solicitation_retries);
      out += buf;
    }
  }
  return out;
}

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Fixture = hash header + fingerprint body.
std::string render_fixture(const std::string& body) {
  char head[64];
  std::snprintf(head, sizeof(head), "hash: %016" PRIx64 "\n", fnv1a(body));
  return head + body;
}

bool regen_requested() {
  const char* env = std::getenv("LOCKSS_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void check_golden(const std::string& name, const RunResult& result, bool dynamic = false,
                  bool faulty = false) {
  const std::string fixture = render_fixture(fingerprint(name, result, dynamic, faulty));
  const std::string path = golden_dir() + name + ".golden";
  if (regen_requested()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << fixture;
    out.close();
    SUCCEED() << "regenerated " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing fixture " << path
                            << " — run LOCKSS_REGEN_GOLDEN=1 ./golden_trace_test";
  std::stringstream committed;
  committed << in.rdbuf();
  EXPECT_EQ(committed.str(), fixture)
      << "RunResult drifted from the committed fixture for '" << name
      << "'. If this change is intentional, regenerate with "
         "LOCKSS_REGEN_GOLDEN=1 ./golden_trace_test and commit the diff.";
}

// Small canonical deployment: big enough for polls, repairs, damage, and
// adversary engagement; small enough that all six scenarios run in seconds.
ScenarioConfig canonical_config() {
  ScenarioConfig config;
  config.peer_count = 12;
  config.au_count = 2;
  config.duration = sim::SimTime::days(400);
  config.seed = 20250730;
  config.trace_interval = sim::SimTime::days(25);
  // Inflate the damage rate (as the reduced bench profiles do) so the
  // corpus also pins the bit-rot injection, damage-integral, and repair
  // accounting paths, which see no events at paper rates in a deployment
  // this small.
  config.damage.mean_disk_years_between_failures = 0.2;
  config.damage.aus_per_disk = config.au_count;
  return config;
}

TEST(GoldenTraceTest, Baseline) {
  check_golden("baseline", run_scenario(canonical_config()));
}

TEST(GoldenTraceTest, PipeStoppage) {
  ScenarioConfig config = canonical_config();
  config.adversary = {{.kind = adversary::PhaseKind::kPipeStoppage,
                       .cadence = {.attack_duration = sim::SimTime::days(30),
                                   .recuperation = sim::SimTime::days(15),
                                   .coverage = 0.5}}};
  check_golden("pipe_stoppage", run_scenario(config));
}

TEST(GoldenTraceTest, AdmissionFlood) {
  ScenarioConfig config = canonical_config();
  config.adversary = {{.kind = adversary::PhaseKind::kAdmissionFlood,
                       .cadence = {.attack_duration = sim::SimTime::days(20),
                                   .recuperation = sim::SimTime::days(20),
                                   .coverage = 1.0}}};
  check_golden("admission_flood", run_scenario(config));
}

TEST(GoldenTraceTest, VoteFlood) {
  ScenarioConfig config = canonical_config();
  config.adversary = {{.kind = adversary::PhaseKind::kVoteFlood}};
  check_golden("vote_flood", run_scenario(config));
}

TEST(GoldenTraceTest, Churn) {
  ScenarioConfig config = canonical_config();
  config.newcomer_count = 3;
  config.newcomer_join_window = sim::SimTime::days(200);
  check_golden("churn", run_scenario(config));
}

TEST(GoldenTraceTest, ChurnDynamics) {
  // Session churn + arrivals + alarm/recovery operator policies over the
  // canonical deployment: pins the whole dynamics layer — schedule
  // generation, depart/recover teardown, arrival bootstrap, operator
  // interventions, and the availability/recovery trace series.
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
  check_golden("churn_dynamics", run_scenario(config), /*dynamic=*/true);
}

TEST(GoldenTraceTest, RegionalOutage) {
  // Correlated regional outages with staggered, state-losing recovery under
  // a brute-force adversary: pins the outage merge logic, the offline link
  // filter, and publisher reinstalls interacting with the damage integral.
  ScenarioConfig config = canonical_config();
  config.adversary = {{.kind = adversary::PhaseKind::kBruteForce}};
  config.churn.regions = 3;
  config.churn.regional_outage_rate_per_year = 3.0;
  config.churn.regional_outage_days = 6.0;
  config.churn.regional_recovery_stagger_hours = 12.0;
  config.churn.regional_state_loss = true;
  check_golden("regional_outage", run_scenario(config), /*dynamic=*/true);
}

TEST(GoldenTraceTest, LossyLinks) {
  // All four fault knobs over the otherwise-static canonical deployment:
  // pins the fault model's per-sender lane streams, the burst placement
  // hash, the duplicate clone path, and the robustness/abort/liveness
  // accounting (docs/faults.md).
  ScenarioConfig config = canonical_config();
  config.faults.loss_rate = 0.10;
  config.faults.dup_rate = 0.02;
  config.faults.jitter = sim::SimTime::milliseconds(20);
  config.faults.burst_outage_rate = 0.05;
  config.faults.burst_cycle = sim::SimTime::days(2.0);
  check_golden("lossy_links", run_scenario(config), /*dynamic=*/false, /*faulty=*/true);
}

TEST(GoldenTraceTest, LossyChurnDynamics) {
  // Faults composed with session churn and arrivals: the delivery path now
  // runs faults *after* the churn OfflineSetFilter veto, so this fixture
  // pins the fault/veto ordering and the lane-draw stream under a changing
  // population.
  ScenarioConfig config = canonical_config();
  config.faults.loss_rate = 0.15;
  config.faults.jitter = sim::SimTime::milliseconds(10);
  config.churn.leave_rate_per_peer_year = 1.5;
  config.churn.crash_rate_per_peer_year = 0.7;
  config.churn.mean_downtime_days = 8.0;
  config.churn.arrival_rate_per_year = 3.0;
  check_golden("lossy_churn_dynamics", run_scenario(config), /*dynamic=*/true, /*faulty=*/true);
}

TEST(GoldenTraceTest, LayeredBruteForce) {
  // §6.3 layering methodology under the §7.4 adversary: two layers whose
  // schedules thread through, combined into one deployment-level result.
  ScenarioConfig config = canonical_config();
  config.adversary = {{.kind = adversary::PhaseKind::kBruteForce}};
  const std::vector<RunResult> layers = run_layered(config, 2);
  ASSERT_EQ(layers.size(), 2u);
  check_golden("layered_brute_force", combine_results(layers));
}

}  // namespace
}  // namespace lockss::experiment
