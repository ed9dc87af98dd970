// Campaign spec layer: JSON parsing, spec validation round-trips, rejection
// diagnostics (file/line/field context), and grid compilation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "campaign/cell_hash.hpp"
#include "campaign/engine.hpp"
#include "campaign/json.hpp"
#include "campaign/spec.hpp"
#include "sim/rng.hpp"

namespace lockss::campaign {
namespace {

Json parse_ok(const std::string& text) {
  Json json;
  std::string error;
  EXPECT_TRUE(parse_json(text, &json, &error)) << error;
  return json;
}

TEST(CampaignJsonTest, ParsesScalarsArraysObjects) {
  const Json json = parse_ok(R"({
    "a": 1.5, "b": -3, "c": "hi\n", "d": true, "e": null,
    "f": [1, 2, 3], "g": { "nested": [] },
  })");
  ASSERT_TRUE(json.is_object());
  EXPECT_DOUBLE_EQ(json.find("a")->number_value, 1.5);
  EXPECT_DOUBLE_EQ(json.find("b")->number_value, -3.0);
  EXPECT_EQ(json.find("c")->string_value, "hi\n");
  EXPECT_TRUE(json.find("d")->bool_value);
  EXPECT_TRUE(json.find("e")->is_null());
  ASSERT_EQ(json.find("f")->array_items.size(), 3u);
  EXPECT_TRUE(json.find("g")->find("nested")->is_array());
}

TEST(CampaignJsonTest, TracksLinesAndComments) {
  const Json json = parse_ok("{\n  // comment line\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
  EXPECT_EQ(json.line, 1);
  EXPECT_EQ(json.find("a")->line, 3);
  EXPECT_EQ(json.find("b")->line, 4);
  EXPECT_EQ(json.find("b")->array_items[0].line, 5);
}

TEST(CampaignJsonTest, ReportsErrorLine) {
  Json json;
  std::string error;
  EXPECT_FALSE(parse_json("{\n  \"a\": 1,\n  \"a\": 2\n}", &json, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;

  EXPECT_FALSE(parse_json("{ \"a\": tru }", &json, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;

  // Pathological nesting must produce a diagnostic, not a stack overflow.
  EXPECT_FALSE(parse_json(std::string(100000, '['), &json, &error));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

TEST(CampaignJsonTest, WriterRoundTrips) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("x");
  w.key("n").value(1.25);
  w.key("list").begin_array().value(uint64_t{1}).value(uint64_t{2}).end_array();
  w.end_object();
  Json json;
  std::string error;
  ASSERT_TRUE(parse_json(w.take(), &json, &error)) << error;
  EXPECT_EQ(json.find("name")->string_value, "x");
  EXPECT_DOUBLE_EQ(json.find("n")->number_value, 1.25);
  EXPECT_EQ(json.find("list")->array_items.size(), 2u);
}

// --- Spec parsing --------------------------------------------------------

constexpr const char* kFullSpec = R"({
  "name": "demo",
  "description": "d",
  "deployment": { "peers": 20, "aus": 3, "duration_years": 0.5, "seed": 9, "seeds": 2,
                  "newcomers": 4, "newcomer_window_days": 100, "au_coverage": 0.8 },
  "damage": { "mean_disk_years_between_failures": 0.3, "aus_per_disk": 3.0 },
  "protocol": { "quorum": 5, "adaptive_acceptance": true },
  "dynamics": { "leave_rate_per_peer_year": 1.5, "crash_rate_per_peer_year": 0.5,
                "mean_downtime_days": 9, "arrival_rate_per_year": 6,
                "regions": 4, "regional_outage_rate_per_year": 2,
                "regional_outage_days": 4, "regional_recovery_stagger_hours": 8,
                "regional_state_loss": true },
  "operators": { "detection_latency_days": 1.5, "recrawl_cost_factor": 3,
                 "policies": [
                   { "trigger": "alarm", "action": "au_recrawl" },
                   { "trigger": "recovery", "action": "rate_tighten", "factor": 0.25 }
                 ] },
  "network": { "min_latency_ms": 2, "max_latency_ms": 40 },
  "network_faults": { "loss_rate": 0.1, "dup_rate": 0.02, "jitter_ms": 25,
                      "burst_outage_rate": 0.05, "burst_cycle_days": 2 },
  "trace_days": 10,
  "adversary": [
    { "kind": "pipe_stoppage", "attack_days": 20, "recuperation_days": 10, "coverage_percent": 50,
      "start_days": 30, "stop_days": 120 },
    { "kind": "brute_force", "defection": "REMAINING", "minion_count": 8 }
  ],
  "sweep": [
    { "param": "attack_days", "phase": 0, "label": "d", "values": [10, 20] },
    { "param": "defection", "phase": 1, "values": ["INTRO", "NONE"] }
  ]
})";

TEST(CampaignSpecTest, ParsesFullSpec) {
  Spec spec;
  std::string error;
  ASSERT_TRUE(parse_spec(parse_ok(kFullSpec), "demo.json", &spec, &error)) << error;
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.peers, 20u);
  EXPECT_EQ(spec.aus, 3u);
  EXPECT_EQ(spec.newcomers, 4u);
  EXPECT_DOUBLE_EQ(spec.au_coverage, 0.8);
  EXPECT_DOUBLE_EQ(spec.duration.to_days(), 0.5 * 365.0);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.seeds, 2u);
  EXPECT_DOUBLE_EQ(spec.trace_interval.to_days(), 10.0);
  EXPECT_DOUBLE_EQ(spec.damage_mtbf_disk_years, 0.3);
  ASSERT_EQ(spec.protocol_overrides.size(), 2u);
  EXPECT_EQ(spec.protocol_overrides[0].first, "quorum");
  ASSERT_EQ(spec.pipeline.size(), 2u);
  EXPECT_EQ(spec.pipeline[0].kind, adversary::PhaseKind::kPipeStoppage);
  EXPECT_DOUBLE_EQ(spec.pipeline[0].start.to_days(), 30.0);
  EXPECT_DOUBLE_EQ(spec.pipeline[0].stop.to_days(), 120.0);
  EXPECT_EQ(spec.pipeline[1].kind, adversary::PhaseKind::kBruteForce);
  EXPECT_EQ(spec.pipeline[1].defection, adversary::DefectionPoint::kRemaining);
  EXPECT_EQ(spec.pipeline[1].minion_count, 8u);
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_FALSE(spec.axes[0].categorical());
  EXPECT_TRUE(spec.axes[1].categorical());
  // Dynamics + operators sections.
  EXPECT_TRUE(spec.churn.enabled());
  EXPECT_DOUBLE_EQ(spec.churn.leave_rate_per_peer_year, 1.5);
  EXPECT_DOUBLE_EQ(spec.churn.crash_rate_per_peer_year, 0.5);
  EXPECT_DOUBLE_EQ(spec.churn.mean_downtime_days, 9.0);
  EXPECT_DOUBLE_EQ(spec.churn.arrival_rate_per_year, 6.0);
  EXPECT_EQ(spec.churn.regions, 4u);
  EXPECT_TRUE(spec.churn.regional_state_loss);
  EXPECT_TRUE(spec.operators.enabled());
  EXPECT_DOUBLE_EQ(spec.operators.detection_latency.to_days(), 1.5);
  EXPECT_DOUBLE_EQ(spec.operators.recrawl_cost_factor, 3.0);
  ASSERT_EQ(spec.operators.policies.size(), 2u);
  EXPECT_EQ(spec.operators.policies[0].trigger, dynamics::OperatorTrigger::kAlarm);
  EXPECT_EQ(spec.operators.policies[0].action, dynamics::OperatorAction::kAuRecrawl);
  EXPECT_EQ(spec.operators.policies[1].trigger, dynamics::OperatorTrigger::kRecovery);
  EXPECT_EQ(spec.operators.policies[1].action, dynamics::OperatorAction::kRateTighten);
  EXPECT_DOUBLE_EQ(spec.operators.policies[1].factor, 0.25);
  // Network + fault sections.
  EXPECT_DOUBLE_EQ(spec.network.min_latency.to_seconds() * 1000.0, 2.0);
  EXPECT_DOUBLE_EQ(spec.network.max_latency.to_seconds() * 1000.0, 40.0);
  EXPECT_TRUE(spec.faults_section);
  EXPECT_TRUE(spec.faults.enabled());
  EXPECT_DOUBLE_EQ(spec.faults.loss_rate, 0.1);
  EXPECT_DOUBLE_EQ(spec.faults.dup_rate, 0.02);
  EXPECT_DOUBLE_EQ(spec.faults.jitter.to_seconds() * 1000.0, 25.0);
  EXPECT_DOUBLE_EQ(spec.faults.burst_outage_rate, 0.05);
  EXPECT_DOUBLE_EQ(spec.faults.burst_cycle.to_days(), 2.0);
}

// Every rejection must carry file:line: field: context.
struct Rejection {
  const char* text;
  const char* expect_location;  // "file.json:N"
  const char* expect_substring;
};

TEST(CampaignSpecTest, RejectionDiagnosticsCarryLineAndField) {
  const Rejection cases[] = {
      {"{\n  \"description\": \"no name\"\n}", "r.json:1", "name"},
      {"{\n  \"name\": \"x\",\n  \"bogus_member\": 1\n}", "r.json:3", "unknown member"},
      {"{\n  \"name\": \"x\",\n  \"deployment\": { \"peers\": -3 }\n}", "r.json:3",
       "non-negative integer"},
      {"{\n  \"name\": \"x\",\n  \"deployment\": { \"seeds\": 0 }\n}", "r.json:3", "seeds"},
      {"{\n  \"name\": \"x\",\n  \"adversary\": [\n    { \"kind\": \"pipe_stopage\" }\n  ]\n}",
       "r.json:4", "unknown attack module"},
      {"{\n  \"name\": \"x\",\n  \"adversary\": [\n    { \"kind\": \"brute_force\",\n"
       "      \"defection\": \"SOMETIMES\" }\n  ]\n}",
       "r.json:5", "defection"},
      {"{\n  \"name\": \"x\",\n  \"adversary\": [\n"
       "    { \"kind\": \"pipe_stoppage\", \"start_days\": 50, \"stop_days\": 20 }\n  ]\n}",
       "r.json:3", "stop must come after start"},
      {"{\n  \"name\": \"x\",\n  \"adversary\": [\n"
       "    { \"kind\": \"vote_flood\" },\n    { \"kind\": \"vote_flood\" }\n  ]\n}",
       "r.json:3", "overlapping identity pools"},
      {"{\n  \"name\": \"x\",\n  \"sweep\": [\n    { \"param\": \"warp_factor\","
       " \"values\": [1] }\n  ]\n}",
       "r.json:4", "unknown sweep parameter"},
      {"{\n  \"name\": \"x\",\n  \"sweep\": [\n    { \"param\": \"attack_days\","
       " \"values\": [1] }\n  ]\n}",
       "r.json:4", "out of range"},
      {"{\n  \"name\": \"x\",\n  \"sweep\": [\n    { \"param\": \"peers\", \"values\": [] }\n"
       "  ]\n}",
       "r.json:4", "non-empty array"},
      {"{\n  \"name\": \"x\",\n  \"protocol\": { \"quorums\": 10 }\n}", "r.json:3",
       "unknown protocol parameter"},
      {"{\n  \"name\": \"x\",\n  \"deployment\": { \"peers\": 4294967297 }\n}", "r.json:3",
       "32-bit range"},
      {"{\n  \"name\": \"x\",\n  \"deployment\": { \"seed\": 1.5 }\n}", "r.json:3",
       "non-negative integer"},
      {"{\n  \"name\": \"x\",\n  \"sweep\": [\n    { \"param\": \"peers\","
       " \"values\": [-10] }\n  ]\n}",
       "r.json:4", "whole non-negative 32-bit"},
      {"{\n  \"name\": \"x\",\n  \"sweep\": [\n    { \"param\": \"au_coverage\","
       " \"values\": [1.5] }\n  ]\n}",
       "r.json:4", "within (0, 1]"},
      {"{\n  \"name\": \"x\",\n  \"outputs\": { \"figure\": { \"metric\": \"afp\","
       " \"row_header\": \"d\", \"csv\": \"x.csv\" } }\n}",
       "r.json:3", "unknown metric"},
      {"{\n  \"name\": \"x\",\n  \"sweep\": [ { \"param\": \"peers\", \"values\": [1, 2] } ],\n"
       "  \"outputs\": { \"figure\": { \"metric\": \"friction\", \"row_header\": \"d\","
       " \"csv\": \"x.csv\" } }\n}",
       "r.json:4", "exactly 2 sweep axes"},
      // --- outputs.figure as an array ------------------------------------
      {"{\n  \"name\": \"x\",\n  \"outputs\": { \"figure\": [] }\n}", "r.json:3",
       "non-empty array"},
      {"{\n  \"name\": \"x\",\n  \"sweep\": [\n"
       "    { \"param\": \"peers\", \"values\": [10, 20] },\n"
       "    { \"param\": \"aus\", \"values\": [1, 2] }\n  ],\n"
       "  \"outputs\": { \"figure\": [\n"
       "    { \"metric\": \"friction\", \"row_header\": \"d\", \"csv\": \"a.csv\" },\n"
       "    { \"metric\": \"afp\", \"row_header\": \"d\", \"csv\": \"b.csv\" }\n"
       "  ] }\n}",
       "r.json:9", "outputs.figure[1].metric: unknown metric"},
      {"{\n  \"name\": \"x\",\n  \"sweep\": [\n"
       "    { \"param\": \"peers\", \"values\": [10, 20] },\n"
       "    { \"param\": \"aus\", \"values\": [1, 2] }\n  ],\n"
       "  \"outputs\": { \"figure\": [\n"
       "    { \"metric\": \"friction\", \"row_header\": \"d\", \"csv\": \"a.csv\" },\n"
       "    { \"metric\": \"delay_ratio\", \"row_header\": \"d\", \"csv\": \"a.csv\" }\n"
       "  ] }\n}",
       "r.json:9", "written by another figure"},
      // --- dynamics section ---------------------------------------------
      {"{\n  \"name\": \"x\",\n  \"dynamics\": {\n    \"churn\": 1\n  }\n}", "r.json:4",
       "unknown member"},
      {"{\n  \"name\": \"x\",\n  \"dynamics\": {\n    \"leave_rate_per_peer_year\": -1\n  }\n}",
       "r.json:3", "leave_rate_per_peer_year"},
      {"{\n  \"name\": \"x\",\n  \"dynamics\": {\n    \"crash_rate_per_peer_year\": -0.5\n"
       "  }\n}",
       "r.json:3", "crash_rate_per_peer_year"},
      {"{\n  \"name\": \"x\",\n  \"dynamics\": {\n    \"mean_downtime_days\": 0\n  }\n}",
       "r.json:3", "mean_downtime_days"},
      {"{\n  \"name\": \"x\",\n  \"dynamics\": {\n    \"arrival_rate_per_year\": -2\n  }\n}",
       "r.json:3", "arrival_rate_per_year"},
      {"{\n  \"name\": \"x\",\n  \"dynamics\": {\n"
       "    \"regional_outage_rate_per_year\": 2\n  }\n}",
       "r.json:3", "regions"},
      {"{\n  \"name\": \"x\",\n  \"dynamics\": {\n    \"regions\": 2,\n"
       "    \"regional_outage_rate_per_year\": 2,\n    \"regional_outage_days\": 0\n  }\n}",
       "r.json:3", "regional_outage_days"},
      {"{\n  \"name\": \"x\",\n  \"dynamics\": {\n    \"regions\": 2,\n"
       "    \"regional_outage_rate_per_year\": 2,\n"
       "    \"regional_recovery_stagger_hours\": -1\n  }\n}",
       "r.json:3", "regional_recovery_stagger_hours"},
      {"{\n  \"name\": \"x\",\n  \"dynamics\": {\n    \"regions\": -3\n  }\n}", "r.json:4",
       "non-negative integer"},
      {"{\n  \"name\": \"x\",\n  \"dynamics\": {\n    \"regional_state_loss\": 1\n  }\n}",
       "r.json:4", "expected a bool"},
      // --- operators section --------------------------------------------
      {"{\n  \"name\": \"x\",\n  \"operators\": {\n    \"detection_latency_days\": 2\n  }\n}",
       "r.json:3", "policies"},
      {"{\n  \"name\": \"x\",\n  \"operators\": {\n    \"policies\": []\n  }\n}", "r.json:4",
       "non-empty array"},
      {"{\n  \"name\": \"x\",\n  \"operators\": {\n    \"detection_latency_days\": -1,\n"
       "    \"policies\": [ { \"trigger\": \"alarm\", \"action\": \"rekey\" } ]\n  }\n}",
       "r.json:3", "detection_latency_days"},
      {"{\n  \"name\": \"x\",\n  \"operators\": {\n    \"recrawl_cost_factor\": 0,\n"
       "    \"policies\": [ { \"trigger\": \"alarm\", \"action\": \"rekey\" } ]\n  }\n}",
       "r.json:3", "recrawl_cost_factor"},
      {"{\n  \"name\": \"x\",\n  \"operators\": {\n    \"policies\": [\n"
       "      { \"trigger\": \"panic\", \"action\": \"rekey\" }\n    ]\n  }\n}",
       "r.json:5", "unknown trigger"},
      {"{\n  \"name\": \"x\",\n  \"operators\": {\n    \"policies\": [\n"
       "      { \"trigger\": \"alarm\", \"action\": \"reboot\" }\n    ]\n  }\n}",
       "r.json:5", "unknown action"},
      {"{\n  \"name\": \"x\",\n  \"operators\": {\n    \"policies\": [\n"
       "      { \"trigger\": \"alarm\", \"action\": \"rate_tighten\", \"factor\": 1.5 }\n"
       "    ]\n  }\n}",
       "r.json:5", "within (0, 1]"},
      {"{\n  \"name\": \"x\",\n  \"operators\": {\n    \"policies\": [\n"
       "      { \"trigger\": \"alarm\", \"action\": \"rekey\", \"severity\": 3 }\n    ]\n  }\n}",
       "r.json:5", "unknown member"},
      {"{\n  \"name\": \"x\",\n  \"operators\": {\n    \"policies\": [ 7 ]\n  }\n}", "r.json:4",
       "expected an object"},
      // --- dynamics sweep axes ------------------------------------------
      {"{\n  \"name\": \"x\",\n  \"sweep\": [\n    { \"param\": \"churn_leave_rate\","
       " \"values\": [-1] }\n  ]\n}",
       "r.json:4", "churn_leave_rate"},
      {"{\n  \"name\": \"x\",\n  \"sweep\": [\n    { \"param\": \"churn_mean_downtime_days\","
       " \"values\": [0] }\n  ]\n}",
       "r.json:4", "churn_mean_downtime_days"},
      {"{\n  \"name\": \"x\",\n  \"sweep\": [\n    { \"param\": \"detection_latency_days\","
       " \"values\": [1, 2] }\n  ]\n}",
       "r.json:4", "operators section"},
      {"{\n  \"name\": \"x\",\n  \"sweep\": [\n    { \"param\": \"regional_outage_rate\","
       " \"values\": [1, 2] }\n  ]\n}",
       "r.json:4", "dynamics.regions"},
      {"{\n  \"name\": \"x\",\n  \"sweep\": [\n    { \"param\": \"churn_mean_downtime_days\","
       " \"values\": [2, 20] }\n  ]\n}",
       "r.json:4", "session churn"},
      // --- network + network_faults sections ----------------------------
      {"{\n  \"name\": \"x\",\n  \"network\": {\n    \"min_latency_ms\": -1\n  }\n}", "r.json:3",
       "min_latency_ms"},
      {"{\n  \"name\": \"x\",\n  \"network\": {\n    \"min_latency_ms\": 20,\n"
       "    \"max_latency_ms\": 5\n  }\n}",
       "r.json:3", "max_latency_ms"},
      {"{\n  \"name\": \"x\",\n  \"network\": {\n    \"latency_ms\": 10\n  }\n}", "r.json:4",
       "unknown member"},
      {"{\n  \"name\": \"x\",\n  \"network_faults\": {\n    \"loss_rate\": -0.1\n  }\n}",
       "r.json:3", "loss_rate"},
      {"{\n  \"name\": \"x\",\n  \"network_faults\": {\n    \"loss_rate\": 1.5\n  }\n}",
       "r.json:3", "within [0, 1]"},
      {"{\n  \"name\": \"x\",\n  \"network_faults\": {\n    \"dup_rate\": 2\n  }\n}", "r.json:3",
       "dup_rate"},
      {"{\n  \"name\": \"x\",\n  \"network_faults\": {\n    \"burst_outage_rate\": -1\n  }\n}",
       "r.json:3", "burst_outage_rate"},
      {"{\n  \"name\": \"x\",\n  \"network_faults\": {\n    \"jitter_ms\": -5\n  }\n}",
       "r.json:3", "jitter_ms"},
      {"{\n  \"name\": \"x\",\n  \"network\": { \"min_latency_ms\": 0, \"max_latency_ms\": 0 },\n"
       "  \"network_faults\": {\n    \"jitter_ms\": 10\n  }\n}",
       "r.json:4", "delay floor"},
      {"{\n  \"name\": \"x\",\n  \"network_faults\": {\n    \"burst_cycle_days\": 0\n  }\n}",
       "r.json:3", "burst_cycle_days"},
      {"{\n  \"name\": \"x\",\n  \"network_faults\": {\n    \"los_rate\": 0.1\n  }\n}",
       "r.json:4", "unknown member"},
      // --- fault sweep axes ---------------------------------------------
      {"{\n  \"name\": \"x\",\n  \"sweep\": [\n    { \"param\": \"loss_rate\","
       " \"values\": [0.1] }\n  ]\n}",
       "r.json:4", "network_faults section"},
      {"{\n  \"name\": \"x\",\n  \"network_faults\": {},\n  \"sweep\": [\n"
       "    { \"param\": \"dup_rate\", \"values\": [1.5] }\n  ]\n}",
       "r.json:5", "within [0, 1]"},
      {"{\n  \"name\": \"x\",\n"
       "  \"network\": { \"min_latency_ms\": 0, \"max_latency_ms\": 0 },\n"
       "  \"network_faults\": {},\n  \"sweep\": [\n"
       "    { \"param\": \"jitter_ms\", \"values\": [5, 10] }\n  ]\n}",
       "r.json:6", "min_latency_ms > 0"},
      {"{\n  \"name\": \"x\",\n  \"network_faults\": {},\n  \"sweep\": [\n"
       "    { \"param\": \"jitter_ms\", \"values\": [-2] }\n  ]\n}",
       "r.json:5", "non-negative"},
      // --- one range per field, whichever path the value arrives by -----
      {"{\n  \"name\": \"x\",\n  \"protocol\": { \"quorum\": -3 }\n}", "r.json:3",
       "protocol.quorum: must be a non-negative integer"},
      {"{\n  \"name\": \"x\",\n  \"protocol\": { \"quorum\": 2.7 }\n}", "r.json:3",
       "protocol.quorum: must be a non-negative integer"},
      {"{\n  \"name\": \"x\",\n  \"protocol\": { \"quorum\": 4294967297 }\n}", "r.json:3",
       "protocol.quorum: exceeds the 32-bit range"},
      {"{\n  \"name\": \"x\",\n  \"protocol\": { \"inter_poll_days\": 0 }\n}", "r.json:3",
       "protocol.inter_poll_days: must be positive"},
      {"{\n  \"name\": \"x\",\n  \"protocol\": { \"inter_poll_days\": -1 }\n}", "r.json:3",
       "protocol.inter_poll_days: must be positive"},
      {"{\n  \"name\": \"x\",\n  \"sweep\": [\n    { \"param\": \"inter_poll_days\","
       " \"values\": [0] }\n  ]\n}",
       "r.json:4", "'inter_poll_days' must be positive"},
      {"{\n  \"name\": \"x\",\n  \"protocol\": { \"unknown_drop_probability\": 1.5 }\n}",
       "r.json:3", "protocol.unknown_drop_probability: must be within [0, 1]"},
      {"{\n  \"name\": \"x\",\n  \"deployment\": { \"peers\": 1e30 }\n}", "r.json:3",
       "deployment.peers: exceeds the 32-bit range"},
      {"{\n  \"name\": \"x\",\n  \"deployment\": { \"seed\": 1e30 }\n}", "r.json:3",
       "deployment.seed: too large to represent exactly"},
  };
  for (const Rejection& c : cases) {
    Json json;
    std::string error;
    ASSERT_TRUE(parse_json(c.text, &json, &error)) << c.text << "\n" << error;
    Spec spec;
    EXPECT_FALSE(parse_spec(json, "r.json", &spec, &error)) << c.text;
    EXPECT_NE(error.find(c.expect_location), std::string::npos)
        << "wanted location '" << c.expect_location << "' in: " << error;
    EXPECT_NE(error.find(c.expect_substring), std::string::npos)
        << "wanted '" << c.expect_substring << "' in: " << error;
  }
}

// Adaptive-adversary and tournament sections: every malformed shape gets a
// file:line:field diagnostic — a tournament author never reads spec.cpp to
// find a typo.
TEST(CampaignSpecTest, PolicyAndTournamentRejectionDiagnostics) {
  const Rejection cases[] = {
      // --- adversary_policy section -------------------------------------
      {"{\n  \"name\": \"x\",\n  \"adversary_policy\": { \"cooldown_days\": 2 }\n}",
       "r.json:3", "knob-only sections are only meaningful with a tournament"},
      {"{\n  \"name\": \"x\",\n  \"adversary_policy\": { \"policies\": [\n"
       "    { \"trigger\": \"outage\", \"action\": \"switch_phase\" }\n  ] }\n}",
       "r.json:3", "adversary policies require an adversary pipeline to act on"},
      {"{\n  \"name\": \"x\",\n  \"adversary\": [ { \"kind\": \"vote_flood\" } ],\n"
       "  \"adversary_policy\": { \"policies\": [\n"
       "    { \"trigger\": \"panic\", \"action\": \"switch_phase\" }\n  ] }\n}",
       "r.json:5", "unknown trigger 'panic' (expected alarm | backoff | outage | recovery |"
                   " grade_collapse)"},
      {"{\n  \"name\": \"x\",\n  \"adversary\": [ { \"kind\": \"vote_flood\" } ],\n"
       "  \"adversary_policy\": { \"policies\": [\n"
       "    { \"trigger\": \"alarm\", \"action\": \"sleep\" }\n  ] }\n}",
       "r.json:5", "unknown action 'sleep' (expected switch_phase | retarget | throttle |"
                   " go_dormant)"},
      {"{\n  \"name\": \"x\",\n  \"adversary\": [ { \"kind\": \"vote_flood\" } ],\n"
       "  \"adversary_policy\": { \"policies\": [\n"
       "    { \"trigger\": \"outage\", \"action\": \"switch_phase\", \"phase\": 5 }\n  ] }\n}",
       "r.json:4", "phase 5 is out of range (pipeline has 1 phase)"},
      {"{\n  \"name\": \"x\",\n  \"adversary\": [ { \"kind\": \"vote_flood\" } ],\n"
       "  \"adversary_policy\": { \"policies\": [\n"
       "    { \"trigger\": \"alarm\", \"action\": \"throttle\", \"factor\": 1.5 }\n  ] }\n}",
       "r.json:4", "factor must be within (0, 1]"},
      {"{\n  \"name\": \"x\",\n  \"adversary\": [ { \"kind\": \"vote_flood\" } ],\n"
       "  \"adversary_policy\": { \"outage_threshold\": 1.5, \"policies\": [\n"
       "    { \"trigger\": \"outage\", \"action\": \"retarget\" }\n  ] }\n}",
       "r.json:4", "outage_threshold must be within [0, 1]"},
      {"{\n  \"name\": \"x\",\n  \"adversary_policy\": {\n    \"patience\": 3\n  }\n}",
       "r.json:4", "unknown member"},
      {"{\n  \"name\": \"x\",\n  \"adversary_policy\": {\n    \"policies\": 7\n  }\n}",
       "r.json:4", "expected an array of { trigger, action } objects"},
      // --- tournament section -------------------------------------------
      {"{\n  \"name\": \"x\",\n  \"sweep\": [ { \"param\": \"peers\", \"values\": [10, 20] }"
       " ],\n  \"tournament\": {\n"
       "    \"adversary_strategies\": [ { \"name\": \"a\" } ],\n"
       "    \"operator_strategies\": [ { \"name\": \"o\" } ]\n  }\n}",
       "r.json:4", "tournament campaigns cross their strategy axes exclusively; remove the "
                   "sweep section"},
      {"{\n  \"name\": \"x\",\n  \"tournament\": {\n"
       "    \"operator_strategies\": [ { \"name\": \"o\" } ]\n  }\n}",
       "r.json:3", "adversary_strategies: required non-empty array of { name, policies }"},
      {"{\n  \"name\": \"x\",\n  \"tournament\": {\n"
       "    \"adversary_strategies\": [ { \"name\": \"a\" } ],\n"
       "    \"operator_strategies\": []\n  }\n}",
       "r.json:5", "operator_strategies: required non-empty array"},
      {"{\n  \"name\": \"x\",\n  \"tournament\": {\n"
       "    \"adversary_strategies\": [ { \"name\": \"a_b\" } ],\n"
       "    \"operator_strategies\": [ { \"name\": \"o\" } ]\n  }\n}",
       "r.json:4", "must not contain '/', '_', ',' or spaces"},
      {"{\n  \"name\": \"x\",\n  \"tournament\": {\n    \"adversary_strategies\": [\n"
       "      { \"name\": \"a\" },\n      { \"name\": \"a\" }\n    ],\n"
       "    \"operator_strategies\": [ { \"name\": \"o\" } ]\n  }\n}",
       "r.json:6", "duplicate strategy name 'a'"},
      {"{\n  \"name\": \"x\",\n  \"tournament\": {\n"
       "    \"adversary_strategies\": [ { \"name\": \"a\" } ],\n"
       "    \"operator_strategies\": [ { \"name\": \"o\", \"detection_latency_days\": -1 } ]\n"
       "  }\n}",
       "r.json:5", "detection_latency_days: must be non-negative"},
      {"{\n  \"name\": \"x\",\n  \"tournament\": {\n"
       "    \"adversary_strategies\": [ { \"name\": \"a\" } ],\n"
       "    \"operator_strategies\": [ { \"name\": \"o\", \"recrawl_cost_factor\": 0 } ]\n"
       "  }\n}",
       "r.json:5", "recrawl_cost_factor: must be positive"},
      {"{\n  \"name\": \"x\",\n  \"tournament\": {\n    \"adversary_strategies\": [\n"
       "      { \"name\": \"a\", \"policies\": [\n"
       "        { \"trigger\": \"outage\", \"action\": \"switch_phase\" }\n      ] }\n"
       "    ],\n    \"operator_strategies\": [ { \"name\": \"o\" } ]\n  }\n}",
       "r.json:5", "adversary policies require an adversary pipeline to act on"},
      {"{\n  \"name\": \"x\",\n  \"tournament\": {\n"
       "    \"adversary_strategies\": [ { \"name\": \"a\" } ],\n"
       "    \"operator_strategies\": [ { \"name\": \"o\", \"policies\": [\n"
       "      { \"trigger\": \"alarm\", \"action\": \"rate_tighten\", \"factor\": 2 }\n"
       "    ] } ]\n  }\n}",
       "r.json:6", "rate_tighten factor must be within (0, 1]"},
      {"{\n  \"name\": \"x\",\n  \"tournament\": {\n"
       "    \"adversary_strategies\": [ { \"name\": \"a\" } ],\n"
       "    \"operator_strategies\": [ { \"name\": \"o\" } ],\n    \"rounds\": 3\n  }\n}",
       "r.json:6", "unknown member"},
  };
  for (const Rejection& c : cases) {
    Json json;
    std::string error;
    ASSERT_TRUE(parse_json(c.text, &json, &error)) << c.text << "\n" << error;
    Spec spec;
    EXPECT_FALSE(parse_spec(json, "r.json", &spec, &error)) << c.text;
    EXPECT_NE(error.find(c.expect_location), std::string::npos)
        << "wanted location '" << c.expect_location << "' in: " << error;
    EXPECT_NE(error.find(c.expect_substring), std::string::npos)
        << "wanted '" << c.expect_substring << "' in: " << error;
  }
}

// A full tournament spec round-trips: knobs land in the policy config, the
// strategy tables parse, and the two categorical axes are appended
// (adversary outermost — the payoff matrix's row-major order).
TEST(CampaignSpecTest, ParsesTournamentSpecAndAppendsStrategyAxes) {
  constexpr const char* kTournamentSpec = R"({
    "name": "duel",
    "deployment": { "peers": 12, "aus": 2, "duration_years": 0.3, "seed": 5 },
    "dynamics": { "leave_rate_per_peer_year": 1.0, "mean_downtime_days": 5 },
    "adversary": [
      { "kind": "pipe_stoppage", "attack_days": 20, "recuperation_days": 10,
        "coverage_percent": 50 },
      { "kind": "brute_force", "defection": "REMAINING", "minion_count": 8 }
    ],
    "adversary_policy": { "reaction_latency_hours": 3, "outage_threshold": 0.2 },
    "tournament": {
      "payoff": "duel_matrix.csv",
      "adversary_strategies": [
        { "name": "static" },
        { "name": "adaptive", "policies": [
          { "trigger": "outage", "action": "switch_phase", "phase": 1 },
          { "trigger": "recovery", "action": "switch_phase", "phase": 0 }
        ] }
      ],
      "operator_strategies": [
        { "name": "idle" },
        { "name": "alert", "detection_latency_days": 1, "policies": [
          { "trigger": "alarm", "action": "au_recrawl" }
        ] }
      ]
    }
  })";
  Spec spec;
  std::string error;
  ASSERT_TRUE(parse_spec(parse_ok(kTournamentSpec), "duel.json", &spec, &error)) << error;
  EXPECT_TRUE(spec.tournament);
  EXPECT_EQ(spec.payoff_name, "duel_matrix.csv");
  EXPECT_DOUBLE_EQ(spec.adversary_policy.reaction_latency.to_seconds(), 3.0 * 3600.0);
  EXPECT_DOUBLE_EQ(spec.adversary_policy.outage_threshold, 0.2);
  EXPECT_TRUE(spec.adversary_policy.policies.empty());  // knob-only: rules per strategy

  ASSERT_EQ(spec.adversary_strategies.size(), 2u);
  EXPECT_TRUE(spec.adversary_strategies[0].policies.empty());
  ASSERT_EQ(spec.adversary_strategies[1].policies.size(), 2u);
  EXPECT_EQ(spec.adversary_strategies[1].policies[0].trigger,
            adversary::PolicyTrigger::kOutage);
  EXPECT_EQ(spec.adversary_strategies[1].policies[0].phase, 1u);
  ASSERT_EQ(spec.operator_strategies.size(), 2u);
  EXPECT_TRUE(spec.operator_strategies[0].operators.policies.empty());
  ASSERT_EQ(spec.operator_strategies[1].operators.policies.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.operator_strategies[1].operators.detection_latency.to_days(), 1.0);

  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].param, "adversary_strategy");
  EXPECT_EQ(spec.axes[1].param, "operator_strategy");
  ASSERT_EQ(spec.axes[0].names.size(), 2u);
  EXPECT_EQ(spec.axes[0].names[0], "static");
  EXPECT_EQ(spec.axes[1].names[1], "alert");

  // Compilation expands the 2x2 grid row-major (adversary outermost) and
  // swaps each cell's rule table / operator config per its coordinates.
  CompiledCampaign compiled;
  ASSERT_TRUE(compile_campaign(spec, &compiled, &error)) << error;
  ASSERT_EQ(compiled.cells.size(), 4u);
  EXPECT_EQ(compiled.cells[0].label, "static_idle");
  EXPECT_EQ(compiled.cells[1].label, "static_alert");
  EXPECT_EQ(compiled.cells[2].label, "adaptive_idle");
  EXPECT_EQ(compiled.cells[3].label, "adaptive_alert");
  EXPECT_TRUE(compiled.cells[0].config.adversary_policy.policies.empty());
  EXPECT_TRUE(compiled.cells[0].config.operators.policies.empty());
  ASSERT_EQ(compiled.cells[2].config.adversary_policy.policies.size(), 2u);
  // Strategy rule tables inherit the section knobs.
  EXPECT_DOUBLE_EQ(compiled.cells[2].config.adversary_policy.outage_threshold, 0.2);
  ASSERT_EQ(compiled.cells[3].config.operators.policies.size(), 1u);
  EXPECT_DOUBLE_EQ(compiled.cells[3].config.operators.detection_latency.to_days(), 1.0);
}

TEST(CampaignSpecTest, RoundTripsThroughManifestVocabulary) {
  // Every axis param the docs promise must be accepted by the parser.
  for (const std::string& param : axis_params()) {
    if (param == "defection") {
      continue;  // categorical, needs a phase
    }
    // Full context so every axis is legal: a phase for phase axes, regions
    // for the regional-outage axis, a policy for the detection-latency axis,
    // a (zero) fault section for the fault axes.
    std::string text = "{ \"name\": \"x\", \"adversary\": [ { \"kind\": \"pipe_stoppage\" } ],"
                       " \"dynamics\": { \"regions\": 2, \"leave_rate_per_peer_year\": 1 },"
                       " \"operators\": { \"policies\": [ { \"trigger\": \"alarm\","
                       " \"action\": \"rekey\" } ] },"
                       " \"network_faults\": {},"
                       " \"sweep\": [ { \"param\": \"" +
                       param + "\", \"phase\": 0, \"values\": [1] } ] }";
    Json json;
    std::string error;
    ASSERT_TRUE(parse_json(text, &json, &error)) << param;
    Spec spec;
    EXPECT_TRUE(parse_spec(json, "v.json", &spec, &error)) << param << ": " << error;
  }
}

TEST(CampaignSpecTest, SweepOnlyDynamicsCountAsDynamic) {
  // A dynamics sweep axis makes the campaign dynamic even when the base
  // spec has no dynamics/operators section — the manifest and cells CSV
  // must carry the churn metrics the sweep exists to measure. A downtime
  // axis is legal exactly when a sibling axis switches churn on.
  Json json = parse_ok(R"({ "name": "s",
    "sweep": [ { "param": "churn_leave_rate", "values": [0.5, 2] },
               { "param": "churn_mean_downtime_days", "values": [2, 20] } ] })");
  Spec spec;
  std::string error;
  ASSERT_TRUE(parse_spec(json, "s.json", &spec, &error)) << error;
  EXPECT_FALSE(spec.churn.enabled());
  CompiledCampaign compiled;
  ASSERT_TRUE(compile_campaign(spec, &compiled, &error)) << error;
  ASSERT_EQ(compiled.cells.size(), 4u);
  EXPECT_DOUBLE_EQ(compiled.cells[0].config.churn.leave_rate_per_peer_year, 0.5);
  EXPECT_DOUBLE_EQ(compiled.cells[0].config.churn.mean_downtime_days, 2.0);
  EXPECT_TRUE(compiled.cells[0].config.churn.enabled());

  Json static_json = parse_ok(R"({ "name": "s",
    "sweep": [ { "param": "peers", "values": [10, 20] } ] })");
  Spec static_spec;
  ASSERT_TRUE(parse_spec(static_json, "s.json", &static_spec, &error)) << error;
}

TEST(CampaignSpecTest, SweepOnlyFaultsCountAsFaulty) {
  // The base section is all-zero (an ideal network) but the sweep turns
  // loss on cell by cell: the campaign still counts as faulty, so the
  // manifest/CSV carry the fault columns the sweep exists to measure.
  Json json = parse_ok(R"({ "name": "f",
    "network_faults": {},
    "sweep": [ { "param": "loss_rate", "label": "p", "values": [0, 0.25] } ] })");
  Spec spec;
  std::string error;
  ASSERT_TRUE(parse_spec(json, "f.json", &spec, &error)) << error;
  EXPECT_FALSE(spec.faults.enabled());
  EXPECT_TRUE(spec.faults_section);
  CompiledCampaign compiled;
  ASSERT_TRUE(compile_campaign(spec, &compiled, &error)) << error;
  ASSERT_EQ(compiled.cells.size(), 2u);
  EXPECT_DOUBLE_EQ(compiled.cells[0].config.faults.loss_rate, 0.0);
  EXPECT_DOUBLE_EQ(compiled.cells[1].config.faults.loss_rate, 0.25);
  EXPECT_FALSE(compiled.cells[0].config.faults.enabled());
  EXPECT_TRUE(compiled.cells[1].config.faults.enabled());
  EXPECT_FALSE(compiled.base.faults.enabled());  // lossless baseline here
  EXPECT_EQ(compiled.cells[0].label, "p0");
  EXPECT_EQ(compiled.cells[1].label, "p0.25");
}

TEST(CampaignSpecTest, FaultConfigFlowsIntoCompiledCells) {
  // A base fault section applies to every cell *and* the baseline — loss,
  // duplication, and jitter are deployment properties, like churn, so the
  // relative columns isolate what the swept knob costs.
  Json json = parse_ok(R"({ "name": "f",
    "network": { "min_latency_ms": 3, "max_latency_ms": 12 },
    "network_faults": { "loss_rate": 0.2, "dup_rate": 0.01, "jitter_ms": 40 },
    "sweep": [ { "param": "quorum", "values": [4, 6] } ] })");
  Spec spec;
  std::string error;
  ASSERT_TRUE(parse_spec(json, "f.json", &spec, &error)) << error;
  CompiledCampaign compiled;
  ASSERT_TRUE(compile_campaign(spec, &compiled, &error)) << error;
  EXPECT_DOUBLE_EQ(compiled.base.faults.loss_rate, 0.2);
  EXPECT_DOUBLE_EQ(compiled.base.network.min_latency.to_seconds() * 1000.0, 3.0);
  for (const CompiledCell& cell : compiled.cells) {
    EXPECT_DOUBLE_EQ(cell.config.faults.loss_rate, 0.2);
    EXPECT_DOUBLE_EQ(cell.config.faults.dup_rate, 0.01);
    EXPECT_DOUBLE_EQ(cell.config.faults.jitter.to_seconds() * 1000.0, 40.0);
    EXPECT_DOUBLE_EQ(cell.config.network.max_latency.to_seconds() * 1000.0, 12.0);
  }
}

// --- Each knob is described once ----------------------------------------
// One field table drives the section readers, the sweep axes, the campaign
// hash and the manifest's spec echo. These tests pin that: a value means
// the same on either path into a spec, and every documented knob reaches
// both the hash and the echo.

// Every sweep axis is legal here: two phases, session churn and regions,
// an operator policy, an adversary policy and a (zero) fault section.
constexpr const char* kAllSections = R"({
  "name": "all",
  "deployment": { "peers": 12, "aus": 2, "duration_years": 0.3 },
  "dynamics": { "leave_rate_per_peer_year": 1, "regions": 2 },
  "operators": { "policies": [ { "trigger": "alarm", "action": "rate_tighten" } ] },
  "network_faults": {},
  "adversary": [ { "kind": "pipe_stoppage" }, { "kind": "brute_force" } ],
  "adversary_policy": { "policies": [
    { "trigger": "outage", "action": "switch_phase", "phase": 1 } ] }
})";

constexpr const char* kTournament = R"({
  "name": "duel",
  "adversary": [ { "kind": "pipe_stoppage" } ],
  "tournament": { "adversary_strategies": [ { "name": "a" } ],
                  "operator_strategies": [ { "name": "o" } ] }
})";

// The member at `path` (object keys, or decimal indices into arrays),
// created when missing.
Json* at_path(Json* node, const std::vector<std::string>& path) {
  for (const std::string& step : path) {
    if (node->is_array()) {
      node = &node->array_items[std::stoul(step)];
      continue;
    }
    Json* next = nullptr;
    for (auto& [key, value] : node->object_members) {
      next = key == step ? &value : next;
    }
    if (next == nullptr) {
      node->type = Json::Type::kObject;
      node->object_members.emplace_back(step, Json{});
      next = &node->object_members.back().second;
    }
    node = next;
  }
  return node;
}

// parse_spec over `text` with `value` set at `path`; the diagnostic (empty
// on success) lands in *error.
bool parse_with(const std::string& text, const std::vector<std::string>& path,
                const Json& value, Spec* spec, std::string* error) {
  Json json = parse_ok(text);
  if (!path.empty()) {
    *at_path(&json, path) = value;
  }
  error->clear();
  return parse_spec(json, "p.json", spec, error);
}

Json number_json(double v) {
  Json json;
  json.type = Json::Type::kNumber;
  json.number_value = v;
  return json;
}

struct AxisCase {
  const char* axis;
  std::vector<std::string> path;  // the same knob as a section member
  double good;
  std::optional<double> bad;      // none: every number is in range
};

const std::vector<AxisCase>& axis_cases() {
  static const std::vector<AxisCase> cases = {
      {"peers", {"deployment", "peers"}, 20, 0},
      {"aus", {"deployment", "aus"}, 3, 0},
      {"au_coverage", {"deployment", "au_coverage"}, 0.5, 1.5},
      {"newcomers", {"deployment", "newcomers"}, 2, -1},
      {"newcomer_window_days", {"deployment", "newcomer_window_days"}, 100, -1},
      {"duration_years", {"deployment", "duration_years"}, 0.5, 0},
      {"quorum", {"protocol", "quorum"}, 4, -3},
      {"inner_circle_factor", {"protocol", "inner_circle_factor"}, 3, 2.5},
      {"max_disagreeing", {"protocol", "max_disagreeing"}, 2, -1},
      {"inter_poll_days", {"protocol", "inter_poll_days"}, 30, 0},
      {"nominations_per_vote", {"protocol", "nominations_per_vote"}, 4, 4294967296.0},
      {"outer_circle_size", {"protocol", "outer_circle_size"}, 5, -1},
      {"introduction_fraction", {"protocol", "introduction_fraction"}, 0.25, 1.5},
      {"reference_list_target", {"protocol", "reference_list_target"}, 20, 0.5},
      {"friends_per_poll", {"protocol", "friends_per_poll"}, 1, -2},
      {"friends_list_size", {"protocol", "friends_list_size"}, 3, -2},
      {"unknown_drop_probability", {"protocol", "unknown_drop_probability"}, 0.5, 1.5},
      {"debt_drop_probability", {"protocol", "debt_drop_probability"}, 0.5, -0.5},
      {"refractory_days", {"protocol", "refractory_days"}, 2, -1},
      {"consideration_rate_multiplier", {"protocol", "consideration_rate_multiplier"}, 2, -1},
      {"grade_decay_months", {"protocol", "grade_decay_months"}, 3, -1},
      {"introductory_effort_fraction", {"protocol", "introductory_effort_fraction"}, 0.3, 2},
      {"frivolous_repair_probability", {"protocol", "frivolous_repair_probability"}, 0.1, 2},
      {"adaptive_acceptance", {"protocol", "adaptive_acceptance"}, 1, std::nullopt},
      {"adaptive_scale", {"protocol", "adaptive_scale"}, 2, -1},
      {"churn_leave_rate", {"dynamics", "leave_rate_per_peer_year"}, 2, -1},
      {"churn_crash_rate", {"dynamics", "crash_rate_per_peer_year"}, 0.5, -1},
      {"churn_mean_downtime_days", {"dynamics", "mean_downtime_days"}, 3, 0},
      {"churn_arrival_rate", {"dynamics", "arrival_rate_per_year"}, 4, -1},
      {"regional_outage_rate", {"dynamics", "regional_outage_rate_per_year"}, 2, -1},
      {"detection_latency_days", {"operators", "detection_latency_days"}, 3, -1},
      {"loss_rate", {"network_faults", "loss_rate"}, 0.1, 1.5},
      {"dup_rate", {"network_faults", "dup_rate"}, 0.1, -0.1},
      {"jitter_ms", {"network_faults", "jitter_ms"}, 5, -1},
      {"burst_outage_rate", {"network_faults", "burst_outage_rate"}, 0.1, 2},
      {"attack_days", {"adversary", "0", "attack_days"}, 10, -1},
      {"recuperation_days", {"adversary", "0", "recuperation_days"}, 10, -1},
      {"coverage_percent", {"adversary", "0", "coverage_percent"}, 50, 150},
      {"start_days", {"adversary", "0", "start_days"}, 10, -1},
      {"stop_days", {"adversary", "0", "stop_days"}, 100, -1},
      {"minion_count", {"adversary", "1", "minion_count"}, 8, -1},
  };
  return cases;
}

// The sweep path: `axis` over the single value `v` (on the case's phase).
Json sweep_json(const AxisCase& c, double v) {
  const std::string phase = c.path.size() == 3 ? c.path[1] : "0";
  char value[64];
  std::snprintf(value, sizeof(value), "%.17g", v);
  return parse_ok(std::string("[ { \"param\": \"") + c.axis + "\", \"phase\": " + phase +
                  ", \"values\": [" + value + "] } ]");
}

TEST(CampaignDescribedOnceTest, EverySweepAxisHasAParityCase) {
  std::set<std::string> covered;
  for (const AxisCase& c : axis_cases()) {
    covered.insert(c.axis);
  }
  for (const std::string& param : axis_params()) {
    if (param != "defection") {  // categorical, no section counterpart
      EXPECT_TRUE(covered.contains(param)) << param << " has no parity case";
    }
  }
  EXPECT_EQ(covered.size() + 1, axis_params().size());
}

TEST(CampaignDescribedOnceTest, SectionAndSweepRejectAndAcceptAlike) {
  for (const AxisCase& c : axis_cases()) {
    Spec spec;
    std::string error;
    // Acceptance parity: the in-range value parses both ways.
    if (!c.path.empty()) {
      EXPECT_TRUE(parse_with(kAllSections, c.path, number_json(c.good), &spec, &error))
          << c.axis << ": " << error;
    }
    EXPECT_TRUE(parse_with(kAllSections, {"sweep"}, sweep_json(c, c.good), &spec, &error))
        << c.axis << ": " << error;
    if (!c.bad.has_value()) {
      continue;
    }
    // Rejection parity: the out-of-range value fails both ways, for the
    // same reason.
    ASSERT_FALSE(parse_with(kAllSections, c.path, number_json(*c.bad), &spec, &error))
        << c.axis;
    const std::string reason = error.substr(error.rfind(": ") + 2);
    EXPECT_FALSE(reason.empty()) << error;
    EXPECT_FALSE(parse_with(kAllSections, {"sweep"}, sweep_json(c, *c.bad), &spec, &error))
        << c.axis;
    EXPECT_TRUE(error.ends_with("'" + std::string(c.axis) + "' " + reason))
        << c.axis << ": section says '" << reason << "', sweep says '" << error << "'";
  }
}

// The campaign file's keys with a number or bool value in docs/campaigns.md's
// jsonc examples (the schema, the adversary phase, the one-point campaign).
std::set<std::string> documented_scalar_keys() {
  std::ifstream in(std::string(LOCKSS_SOURCE_DIR) + "/docs/campaigns.md");
  EXPECT_TRUE(in.is_open());
  const std::regex scalar(R"re("([a-z_]+)"\s*:\s*(-?[0-9][0-9.]*|true|false)\b)re");
  std::set<std::string> keys;
  bool in_block = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("```", 0) == 0) {
      in_block = line == "```jsonc";
      continue;
    }
    if (!in_block) {
      continue;
    }
    line = line.substr(0, line.find("//"));
    for (std::sregex_iterator it(line.begin(), line.end(), scalar), end; it != end; ++it) {
      keys.insert((*it)[1]);
    }
  }
  return keys;
}

bool same_json(const Json& a, const Json& b) {
  if (a.type != b.type || a.bool_value != b.bool_value || a.number_value != b.number_value ||
      a.string_value != b.string_value || a.array_items.size() != b.array_items.size() ||
      a.object_members.size() != b.object_members.size()) {
    return false;
  }
  for (size_t i = 0; i < a.array_items.size(); ++i) {
    if (!same_json(a.array_items[i], b.array_items[i])) {
      return false;
    }
  }
  for (size_t i = 0; i < a.object_members.size(); ++i) {
    if (a.object_members[i].first != b.object_members[i].first ||
        !same_json(a.object_members[i].second, b.object_members[i].second)) {
      return false;
    }
  }
  return true;
}

// The `spec` object of the manifest a run of `spec` would write.
Json manifest_echo(const Spec& spec) {
  CompiledCampaign compiled;
  std::string error;
  EXPECT_TRUE(compile_campaign(spec, &compiled, &error)) << error;
  CampaignOutcome outcome;
  outcome.cells.resize(compiled.cells.size());
  const Json manifest = parse_ok(render_manifest(compiled, outcome));
  const Json* echo = manifest.find("spec");
  return echo != nullptr ? *echo : Json{};
}

TEST(CampaignDescribedOnceTest, EveryDocumentedKnobReachesHashAndManifest) {
  struct Knob {
    std::vector<std::string> path;
    const char* value;  // JSON text, off the default
    bool tournament = false;
  };
  const Knob knobs[] = {
      {{"deployment", "peers"}, "20"},
      {{"deployment", "aus"}, "3"},
      {{"deployment", "au_coverage"}, "0.5"},
      {{"deployment", "newcomers"}, "2"},
      {{"deployment", "newcomer_window_days"}, "100"},
      {{"deployment", "duration_years"}, "0.5"},
      {{"deployment", "seed"}, "7"},
      {{"deployment", "seeds"}, "2"},
      {{"deployment", "layers"}, "1"},
      {{"damage", "enabled"}, "false"},
      {{"damage", "mean_disk_years_between_failures"}, "3"},
      {{"damage", "aus_per_disk"}, "10"},
      {{"protocol", "quorum"}, "4"},
      {{"protocol", "inner_circle_factor"}, "3"},
      {{"protocol", "max_disagreeing"}, "2"},
      {{"protocol", "inter_poll_days"}, "30"},
      {{"protocol", "nominations_per_vote"}, "4"},
      {{"protocol", "outer_circle_size"}, "5"},
      {{"protocol", "introduction_fraction"}, "0.25"},
      {{"protocol", "reference_list_target"}, "20"},
      {{"protocol", "friends_per_poll"}, "1"},
      {{"protocol", "friends_list_size"}, "3"},
      {{"protocol", "unknown_drop_probability"}, "0.5"},
      {{"protocol", "debt_drop_probability"}, "0.5"},
      {{"protocol", "refractory_days"}, "2"},
      {{"protocol", "consideration_rate_multiplier"}, "2"},
      {{"protocol", "grade_decay_months"}, "3"},
      {{"protocol", "introductory_effort_fraction"}, "0.3"},
      {{"protocol", "frivolous_repair_probability"}, "0.1"},
      {{"protocol", "adaptive_acceptance"}, "true"},
      {{"protocol", "adaptive_scale"}, "2"},
      {{"dynamics", "leave_rate_per_peer_year"}, "2"},
      {{"dynamics", "crash_rate_per_peer_year"}, "0.5"},
      {{"dynamics", "mean_downtime_days"}, "3"},
      {{"dynamics", "arrival_rate_per_year"}, "4"},
      {{"dynamics", "regions"}, "3"},
      {{"dynamics", "regional_outage_rate_per_year"}, "2"},
      {{"dynamics", "regional_outage_days"}, "5"},
      {{"dynamics", "regional_recovery_stagger_hours"}, "2"},
      {{"dynamics", "regional_state_loss"}, "true"},
      {{"network", "min_latency_ms"}, "2"},
      {{"network", "max_latency_ms"}, "40"},
      {{"network_faults", "loss_rate"}, "0.1"},
      {{"network_faults", "dup_rate"}, "0.1"},
      {{"network_faults", "jitter_ms"}, "5"},
      {{"network_faults", "burst_outage_rate"}, "0.1"},
      {{"network_faults", "burst_cycle_days"}, "2"},
      {{"operators", "detection_latency_days"}, "3"},
      {{"operators", "recrawl_cost_factor"}, "3"},
      {{"operators", "policies", "0", "factor"}, "0.25"},
      {{"observability", "trace"}, "true"},
      {{"observability", "profile"}, "true"},
      {{"observability", "sample_rate"}, "0.5"},
      {{"observability", "ring_capacity"}, "100"},
      {{"trace_days"}, "7"},
      {{"baseline"}, "false"},
      {{"adversary", "0", "attack_days"}, "10"},
      {{"adversary", "0", "recuperation_days"}, "10"},
      {{"adversary", "0", "coverage_percent"}, "50"},
      {{"adversary", "0", "start_days"}, "10"},
      {{"adversary", "0", "stop_days"}, "100"},
      {{"adversary", "1", "minion_count"}, "8"},
      {{"adversary", "1", "minion_id_base"}, "100000"},
      {{"adversary_policy", "reaction_latency_hours"}, "3"},
      {{"adversary_policy", "sensor_interval_days"}, "2"},
      {{"adversary_policy", "cooldown_days"}, "3"},
      {{"adversary_policy", "outage_threshold"}, "0.2"},
      {{"adversary_policy", "backoff_threshold"}, "0.25"},
      {{"adversary_policy", "collapse_threshold"}, "0.1"},
      {{"adversary_policy", "dormant_mean_days"}, "3"},
      {{"adversary_policy", "throttle_pause_days"}, "2"},
      {{"adversary_policy", "policies", "0", "phase"}, "0"},
      {{"adversary_policy", "policies", "0", "factor"}, "0.25"},
      {{"tournament", "operator_strategies", "0", "detection_latency_days"}, "3", true},
      {{"tournament", "operator_strategies", "0", "recrawl_cost_factor"}, "3", true},
  };
  std::set<std::string> covered;
  for (const Knob& knob : knobs) {
    const std::string text = knob.tournament ? kTournament : kAllSections;
    Spec base;
    Spec changed;
    std::string error;
    ASSERT_TRUE(parse_with(text, {}, Json{}, &base, &error)) << error;
    ASSERT_TRUE(parse_with(text, knob.path, parse_ok(knob.value), &changed, &error))
        << knob.path.back() << ": " << error;
    EXPECT_NE(campaign_hash(base), campaign_hash(changed)) << knob.path.back();
    EXPECT_FALSE(same_json(manifest_echo(base), manifest_echo(changed))) << knob.path.back();
    covered.insert(knob.path.back());
  }
  for (const std::string& key : documented_scalar_keys()) {
    EXPECT_TRUE(covered.contains(key)) << "documented key '" << key << "' is not covered";
  }
  for (const std::string& param : protocol_params()) {
    EXPECT_TRUE(covered.contains(param)) << "protocol param '" << param << "' is not covered";
  }
}

// --- Fuzz-style generator round-trips --------------------------------------
// A seeded generator assembles random specs from valid building blocks and
// asserts every one survives write -> parse -> compile with the intended
// grid shape and config values; a second pass injects one random defect
// from a catalog and asserts the diagnostic lands on the right field path.

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

struct Generated {
  std::string text;
  uint32_t peers = 0;
  double churn_leave_rate = 0.0;
  size_t policies = 0;
  size_t phases = 0;
  size_t expected_cells = 1;
};

Generated generate_valid_spec(sim::Rng& rng) {
  Generated g;
  g.peers = 4 + static_cast<uint32_t>(rng.index(60));
  std::string text = "{\n  \"name\": \"fuzz\",\n  \"description\": \"generated\",\n";
  text += "  \"deployment\": { \"peers\": " + std::to_string(g.peers) +
          ", \"aus\": " + std::to_string(1 + rng.index(4)) +
          ", \"duration_years\": " + num(0.2 + rng.uniform()) +
          ", \"seed\": " + std::to_string(rng.index(1000)) +
          ", \"seeds\": " + std::to_string(1 + rng.index(3)) + " },\n";
  if (rng.bernoulli(0.5)) {
    text += "  \"damage\": { \"mean_disk_years_between_failures\": " +
            num(0.1 + rng.uniform() * 5.0) + ", \"aus_per_disk\": " +
            num(1.0 + rng.uniform() * 50.0) + " },\n";
  }
  if (rng.bernoulli(0.5)) {
    text += "  \"protocol\": { \"quorum\": " + std::to_string(2 + rng.index(6)) +
            ", \"reference_list_target\": " + std::to_string(5 + rng.index(20)) + " },\n";
  }
  if (rng.bernoulli(0.7)) {
    // Two-decimal rates so the %.6g rendering round-trips exactly.
    g.churn_leave_rate = static_cast<double>(rng.index(300)) / 100.0;
    text += "  \"dynamics\": { \"leave_rate_per_peer_year\": " + num(g.churn_leave_rate) +
            ", \"crash_rate_per_peer_year\": " + num(rng.uniform()) +
            ", \"mean_downtime_days\": " + num(1.0 + rng.uniform() * 15.0);
    if (rng.bernoulli(0.5)) {
      text += ", \"arrival_rate_per_year\": " + num(rng.uniform() * 10.0);
    }
    if (rng.bernoulli(0.5)) {
      text += ", \"regions\": " + std::to_string(1 + rng.index(4)) +
              ", \"regional_outage_rate_per_year\": " + num(rng.uniform() * 4.0) +
              ", \"regional_outage_days\": " + num(0.5 + rng.uniform() * 8.0) +
              ", \"regional_state_loss\": " + (rng.bernoulli(0.5) ? "true" : "false");
    }
    text += " },\n";
  }
  if (rng.bernoulli(0.6)) {
    static const char* kTriggers[] = {"alarm", "recovery"};
    static const char* kActions[] = {"rekey", "friend_refresh", "au_recrawl"};
    g.policies = 1 + rng.index(3);
    text += "  \"operators\": { \"detection_latency_days\": " + num(rng.uniform() * 6.0) +
            ", \"policies\": [\n";
    for (size_t i = 0; i < g.policies; ++i) {
      const bool tighten = rng.bernoulli(0.25);
      text += std::string("    { \"trigger\": \"") + kTriggers[rng.index(2)] +
              "\", \"action\": \"" +
              (tighten ? "rate_tighten" : kActions[rng.index(3)]) + "\"";
      if (tighten) {
        text += ", \"factor\": " + num(0.1 + rng.uniform() * 0.9);
      }
      text += i + 1 < g.policies ? " },\n" : " }\n";
    }
    text += "  ] },\n";
  }
  g.phases = rng.index(3);  // 0-2; pipe_stoppage then brute_force never collide
  if (g.phases > 0) {
    text += "  \"adversary\": [\n    { \"kind\": \"pipe_stoppage\", \"attack_days\": " +
            num(1.0 + rng.uniform() * 40.0) + ", \"recuperation_days\": " +
            num(1.0 + rng.uniform() * 40.0) + ", \"coverage_percent\": " +
            num(rng.uniform() * 100.0) + " }";
    if (g.phases > 1) {
      text += ",\n    { \"kind\": \"brute_force\", \"defection\": \"INTRO\" }";
    }
    text += "\n  ],\n";
  }
  // 0-2 sweep axes from a vocabulary legal for this spec shape.
  const size_t axis_count = rng.index(3);
  if (axis_count > 0) {
    text += "  \"sweep\": [\n";
    for (size_t a = 0; a < axis_count; ++a) {
      const size_t values = 1 + rng.index(3);
      g.expected_cells *= values;
      std::string param = "churn_leave_rate";
      switch (rng.index(g.phases > 0 ? 4 : 3)) {
        case 0:
          param = "churn_leave_rate";
          break;
        case 1:
          param = "duration_years";
          break;
        case 2:
          param = "quorum";
          break;
        case 3:
          param = "attack_days";
          break;
      }
      text += "    { \"param\": \"" + param + "\", \"label\": \"x" + std::to_string(a) +
              "\", \"values\": [";
      for (size_t v = 0; v < values; ++v) {
        text += (v > 0 ? ", " : "") + num(param == "quorum"
                                              ? static_cast<double>(2 + v)
                                              : 0.5 + static_cast<double>(v));
      }
      text += "] }";
      text += a + 1 < axis_count ? ",\n" : "\n";
    }
    text += "  ],\n";
  }
  text += "  \"trace_days\": " + num(rng.bernoulli(0.5) ? 0.0 : 20.0) + "\n}";
  g.text = text;
  return g;
}

TEST(CampaignSpecFuzzTest, GeneratedValidSpecsSurviveWriteParseCompile) {
  sim::Rng rng(20260730);
  for (int iteration = 0; iteration < 200; ++iteration) {
    const Generated g = generate_valid_spec(rng);
    Json json;
    std::string error;
    ASSERT_TRUE(parse_json(g.text, &json, &error)) << g.text << "\n" << error;
    Spec spec;
    ASSERT_TRUE(parse_spec(json, "g.json", &spec, &error)) << g.text << "\n" << error;
    // The parsed spec carries the generated intent...
    EXPECT_EQ(spec.peers, g.peers);
    EXPECT_DOUBLE_EQ(spec.churn.leave_rate_per_peer_year, g.churn_leave_rate);
    EXPECT_EQ(spec.operators.policies.size(), g.policies);
    EXPECT_EQ(spec.pipeline.size(), g.phases);
    // ...and compiles onto the intended grid, dynamics included.
    CompiledCampaign compiled;
    ASSERT_TRUE(compile_campaign(spec, &compiled, &error)) << g.text << "\n" << error;
    EXPECT_EQ(compiled.cells.size(), g.expected_cells) << g.text;
    EXPECT_EQ(compiled.base.peer_count, g.peers);
    EXPECT_DOUBLE_EQ(compiled.base.churn.leave_rate_per_peer_year, g.churn_leave_rate);
    EXPECT_EQ(compiled.base.operators.policies.size(), g.policies);
    for (const CompiledCell& cell : compiled.cells) {
      EXPECT_EQ(cell.config.adversary.size(), g.phases);
    }
  }
}

TEST(CampaignSpecFuzzTest, GeneratedInvalidSpecsDiagnoseTheRightField) {
  // Each catalog entry welds one defect onto an otherwise-valid skeleton;
  // the diagnostic must carry the source location prefix and the defective
  // field's name, never a crash and never a pass.
  struct Defect {
    const char* fragment;         // inserted after "name"/"description"
    const char* expect_field;
  };
  const Defect catalog[] = {
      {"\"deployment\": { \"peers\": 0 }", "peers"},
      {"\"deployment\": { \"aus\": 0 }", "aus"},
      {"\"deployment\": { \"duration_years\": -2 }", "duration_years"},
      {"\"deployment\": { \"au_coverage\": 2.0 }", "au_coverage"},
      {"\"damage\": { \"mean_disk_years_between_failures\": -1 }",
       "mean_disk_years_between_failures"},
      {"\"dynamics\": { \"leave_rate_per_peer_year\": -0.1 }", "leave_rate_per_peer_year"},
      {"\"dynamics\": { \"mean_downtime_days\": -3 }", "mean_downtime_days"},
      {"\"dynamics\": { \"regional_outage_rate_per_year\": 1 }", "regions"},
      {"\"dynamics\": { \"wobble\": 1 }", "wobble"},
      {"\"operators\": { \"policies\": [ { \"trigger\": \"alarm\" } ] }", "action"},
      {"\"operators\": { \"policies\": [ { \"trigger\": \"whim\","
       " \"action\": \"rekey\" } ] }",
       "trigger"},
      {"\"operators\": { \"policies\": [ { \"trigger\": \"alarm\","
       " \"action\": \"rate_tighten\", \"factor\": 0 } ] }",
       "factor"},
      {"\"operators\": { \"detection_latency_days\": 2 }", "policies"},
      {"\"sweep\": [ { \"param\": \"churn_crash_rate\", \"values\": [-2] } ]",
       "churn_crash_rate"},
      {"\"sweep\": [ { \"param\": \"detection_latency_days\", \"values\": [1] } ]",
       "detection_latency_days"},
      {"\"sweep\": [ { \"param\": \"gremlins\", \"values\": [1] } ]", "gremlins"},
      {"\"adversary\": [ { \"kind\": \"time_travel\" } ]", "kind"},
      {"\"adversary\": [ { \"kind\": \"brute_force\", \"defection\": \"MAYBE\" } ]",
       "defection"},
  };
  sim::Rng rng(99);
  for (int iteration = 0; iteration < 100; ++iteration) {
    const Defect& defect = catalog[rng.index(sizeof(catalog) / sizeof(catalog[0]))];
    const std::string text = std::string("{\n  \"name\": \"bad\",\n  ") + defect.fragment +
                             ",\n  \"description\": \"d\"\n}";
    Json json;
    std::string error;
    ASSERT_TRUE(parse_json(text, &json, &error)) << text << "\n" << error;
    Spec spec;
    ASSERT_FALSE(parse_spec(json, "g.json", &spec, &error)) << text;
    EXPECT_NE(error.find("g.json:"), std::string::npos) << error;
    EXPECT_NE(error.find(defect.expect_field), std::string::npos)
        << "wanted field '" << defect.expect_field << "' in: " << error;
  }
}

// --- Compilation ---------------------------------------------------------

TEST(CampaignCompileTest, ExpandsRowMajorGridAndAppliesAxes) {
  Spec spec;
  std::string error;
  ASSERT_TRUE(parse_spec(parse_ok(kFullSpec), "demo.json", &spec, &error)) << error;
  CompiledCampaign compiled;
  ASSERT_TRUE(compile_campaign(spec, &compiled, &error)) << error;

  // Base config carries deployment + overrides.
  EXPECT_EQ(compiled.base.peer_count, 20u);
  EXPECT_EQ(compiled.base.params.quorum, 5u);
  EXPECT_TRUE(compiled.base.params.adaptive_acceptance);
  EXPECT_TRUE(compiled.base.adversary.empty());  // baseline is adversary-free

  // 2 x 2 grid, first axis outermost, labels joined in axis order.
  ASSERT_EQ(compiled.cells.size(), 4u);
  EXPECT_EQ(compiled.cells[0].label, "d10_INTRO");
  EXPECT_EQ(compiled.cells[1].label, "d10_NONE");
  EXPECT_EQ(compiled.cells[2].label, "d20_INTRO");
  EXPECT_EQ(compiled.cells[3].label, "d20_NONE");
  EXPECT_DOUBLE_EQ(compiled.cells[1].config.adversary[0].cadence.attack_duration.to_days(), 10.0);
  EXPECT_EQ(compiled.cells[1].config.adversary[1].defection, adversary::DefectionPoint::kNone);
  EXPECT_EQ(compiled.cells[2].config.adversary[1].defection, adversary::DefectionPoint::kIntro);
  // Non-swept phase fields survive expansion.
  EXPECT_DOUBLE_EQ(compiled.cells[3].config.adversary[0].stop.to_days(), 120.0);
}

// A Spec built in code skips parse_spec; compilation still refuses values
// the field table would reject instead of casting them.
TEST(CampaignCompileTest, HandBuiltSpecsGetTheSameRangeChecks) {
  CompiledCampaign compiled;
  std::string error;
  Spec overridden;
  overridden.protocol_overrides.emplace_back("quorum", -3.0);
  EXPECT_FALSE(compile_campaign(overridden, &compiled, &error));
  EXPECT_NE(error.find("'quorum'"), std::string::npos) << error;

  Spec swept;
  SweepAxis axis;
  axis.param = "peers";
  axis.label = "p";
  axis.values = {10, -1};
  swept.axes.push_back(axis);
  EXPECT_FALSE(compile_campaign(swept, &compiled, &error));
  EXPECT_NE(error.find("'peers'"), std::string::npos) << error;
  swept.axes[0].values = {10, 20};
  EXPECT_TRUE(compile_campaign(swept, &compiled, &error)) << error;
  EXPECT_EQ(compiled.cells[1].config.peer_count, 20u);
}

TEST(CampaignCompileTest, NoAxesYieldsSingleCell) {
  Json json = parse_ok(R"({ "name": "one", "adversary": [ { "kind": "vote_flood" } ] })");
  Spec spec;
  std::string error;
  ASSERT_TRUE(parse_spec(json, "one.json", &spec, &error)) << error;
  CompiledCampaign compiled;
  ASSERT_TRUE(compile_campaign(spec, &compiled, &error)) << error;
  ASSERT_EQ(compiled.cells.size(), 1u);
  EXPECT_EQ(compiled.cells[0].label, "cell");
  ASSERT_EQ(compiled.cells[0].config.adversary.size(), 1u);
}

}  // namespace
}  // namespace lockss::campaign
