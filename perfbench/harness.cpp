// Benchmark harness: drives the simulator library through its public entry
// points only (campaign::load_spec_file / compile_campaign / run_campaign /
// render_manifest / read_journal, experiment::run_scenario,
// obs::serialize_trace) and times each call from outside. One invocation is
// one repetition; perfbench/run.py spawns it, so an abort costs that
// repetition and nothing else.
//
//   perfbench_harness machine
//   perfbench_harness campaigns --out DIR --seed-offset N --workers W
//                     [--trace 0|1] [--baseline-only 0|1] [--fault PLAN]
//                     --spec FILE [--spec FILE ...]
//   perfbench_harness scenario --seed-offset N [--shards N] [--probe 0|1]
//                     --spec FILE
//
// Every subcommand prints one JSON object on stdout. Per-unit records carry
// the §6.1 metrics the output check compares, the RunProfile phase timers,
// and the layer counters run.py turns into per-layer metrics. `campaigns
// --trace 1` records every obs event kind and adds the traced pass's extra
// calls (render, journal replay, resume, trace serialization) and its spans.
// `scenario` runs a spec's baseline config once; with --probe 1 it runs it
// serially and at 2 shards and checks the two agree.
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/journal.hpp"
#include "campaign/spec.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "obs/export.hpp"
#include "obs/profile.hpp"
#include "protocol/host.hpp"
#include "protocol/voter_session.hpp"

namespace {

using namespace lockss;

// --- Minimal JSON output -----------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string num(uint64_t v) { return std::to_string(v); }

class Obj {
 public:
  Obj& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + json;
    return *this;
  }
  Obj& add(const std::string& key, double v) { return raw(key, num(v)); }
  Obj& add(const std::string& key, uint64_t v) { return raw(key, num(v)); }
  Obj& add(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  Obj& add(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i ? "," : "") + items[i];
  }
  return out + "]";
}

// --- Spans -------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point g_origin = Clock::now();

double now_s() { return std::chrono::duration<double>(Clock::now() - g_origin).count(); }

// A span's id is its index in g_spans; `parent` is the id of the span that
// caused it, or -1 for a top-level harness call.
struct Span {
  std::string name;
  std::string layer;
  int parent = -1;
  int lane = 0;  // 0 = the harness thread, k > 0 = reconstructed worker k
  double start_s = 0.0;
  double dur_s = 0.0;
};

// Kept in memory; written once, with the result, at exit.
std::vector<Span> g_spans;

int add_span(const std::string& name, const std::string& layer, int parent, int lane,
             double start_s, double dur_s) {
  g_spans.push_back({name, layer, parent, lane, start_s, dur_s});
  return static_cast<int>(g_spans.size()) - 1;
}

// Times one top-level call into a layer; returns its duration in seconds and
// its span id in *id when given.
template <typename F>
double timed(const std::string& name, const std::string& layer, F&& fn, int* id = nullptr) {
  const double start = now_s();
  fn();
  const double dur = now_s() - start;
  const int span = add_span(name, layer, -1, 0, start, dur);
  if (id != nullptr) {
    *id = span;
  }
  return dur;
}

// A run's RunProfile phases as consecutive child spans of `parent`.
void phase_spans(const std::string& prefix, int parent, int lane, double start,
                 const obs::RunProfile& profile) {
  add_span(prefix + "setup", "sim", parent, lane, start, profile.setup_ms / 1e3);
  start += profile.setup_ms / 1e3;
  add_span(prefix + "run", "sim", parent, lane, start, profile.run_ms / 1e3);
  start += profile.run_ms / 1e3;
  add_span(prefix + "harvest", "metrics", parent, lane, start, profile.harvest_ms / 1e3);
}

std::string spans_json() {
  std::vector<std::string> items;
  items.reserve(g_spans.size());
  for (const Span& s : g_spans) {
    items.push_back(Obj()
                        .add("name", s.name)
                        .add("layer", s.layer)
                        .add("parent", static_cast<double>(s.parent))
                        .add("lane", static_cast<uint64_t>(s.lane))
                        .add("start_s", s.start_s)
                        .add("dur_s", s.dur_s)
                        .str());
  }
  return array(items);
}

// --- Result records ----------------------------------------------------------

const char* kObsGroups[] = {"poll", "voter", "churn", "operator", "fault", "adversary"};
const uint32_t kObsGroupMasks[] = {obs::kMaskPoll,     obs::kMaskVoter, obs::kMaskChurn,
                                   obs::kMaskOperator, obs::kMaskFault, obs::kMaskAdversary};

// Per-kind and per-group event counts, accumulated over every traced run.
struct ObsCounts {
  std::vector<uint64_t> kinds = std::vector<uint64_t>(obs::kEventKindCount, 0);
  uint64_t trace_bytes = 0;
  double serialize_s = 0.0;

  void add(const obs::EventTrace& trace, const std::string& label) {
    for (const obs::Event& e : trace.events) {
      ++kinds[static_cast<size_t>(e.kind)];
    }
    std::string bytes;
    serialize_s += timed("obs.serialize " + label, "obs",
                         [&] { obs::serialize_trace(trace, &bytes); });
    trace_bytes += bytes.size();
  }

  std::string json() const {
    Obj by_kind;
    Obj by_group;
    for (size_t k = 0; k < kinds.size(); ++k) {
      by_kind.add(obs::event_kind_name(static_cast<obs::EventKind>(k)), kinds[k]);
    }
    for (size_t g = 0; g < std::size(kObsGroups); ++g) {
      uint64_t n = 0;
      for (size_t k = 0; k < kinds.size(); ++k) {
        n += ((kObsGroupMasks[g] >> k) & 1u) ? kinds[k] : 0;
      }
      by_group.add(kObsGroups[g], n);
    }
    return Obj()
        .raw("kinds", by_kind.str())
        .raw("groups", by_group.str())
        .add("trace_bytes", trace_bytes)
        .add("serialize_s", serialize_s)
        .str();
  }
};

// One operation's record: the checked §6.1 outputs plus layer counters.
// `key` names the expected outputs the record is checked against.
std::string unit_json(const std::string& key, const std::string& label, bool ok,
                      const std::string& error, const experiment::RunResult& r) {
  Obj o;
  o.add("key", key).add("label", label).add("ok", ok);
  if (!ok) {
    return o.add("error", error).str();
  }
  const metrics::MetricsReport& m = r.report;
  Obj check;
  check.add("afp", m.access_failure_probability)
      .add("success_gap_days", m.mean_success_gap_days)
      .add("observed_gap_days", m.mean_observed_gap_days)
      .add("successful_polls", m.successful_polls)
      .add("inquorate_polls", m.inquorate_polls)
      .add("alarms", m.alarms)
      .add("repairs", m.repairs)
      .add("loyal_effort_s", m.loyal_effort_seconds)
      .add("adversary_effort_s", m.adversary_effort_seconds)
      .add("events_processed", r.events_processed);
  Obj verdicts;
  for (size_t v = 0; v < r.admission_verdicts.size(); ++v) {
    verdicts.add(protocol::admission_verdict_name(static_cast<protocol::AdmissionVerdict>(v)),
                 r.admission_verdicts[v]);
  }
  Obj aborted;
  for (size_t a = 0; a < r.polls_aborted.size(); ++a) {
    aborted.add(protocol::poll_abort_reason_name(static_cast<protocol::PollAbortReason>(a)),
                r.polls_aborted[a]);
  }
  uint64_t interventions = 0;
  for (const uint64_t n : r.operator_interventions) {
    interventions += n;
  }
  const obs::RunProfile& p = r.profile;
  return o.raw("check", check.str())
      .add("setup_ms", p.setup_ms)
      .add("run_ms", p.run_ms)
      .add("harvest_ms", p.harvest_ms)
      .add("total_ms", p.total_ms)
      .add("events", r.events_processed)
      .add("peak_queue_depth", r.peak_queue_depth)
      .add("polls_started", r.polls_started)
      .add("solicitations", r.solicitations_sent)
      .add("delivered", r.messages_delivered)
      .add("filtered", r.messages_filtered)
      .add("adversary_invitations", r.adversary_invitations)
      .add("adversary_admissions", r.adversary_admissions)
      .raw("verdicts", verdicts.str())
      .add("faults_lost", r.faults_lost)
      .add("faults_duplicated", r.faults_duplicated)
      .add("faults_jittered", r.faults_jittered)
      .add("burst_dropped", r.faults_burst_dropped)
      .add("ack_timeouts", r.ack_timeouts)
      .add("vote_timeouts", r.vote_timeouts)
      .add("solicitation_retries", r.solicitation_retries)
      .raw("polls_aborted", aborted.str())
      .add("departures", r.churn_departures)
      .add("operator_interventions", interventions)
      .add("policy_triggers", r.policy_triggers)
      .str();
}

// Bytes of a RunResult as the journal stores them: every deterministic
// field, none of the wall-clock profile or the event trace.
std::string result_bytes(const experiment::RunResult& r) {
  std::string out;
  campaign::serialize_run_result(r, &out);
  return out;
}

uint64_t file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

bool load_and_compile(const std::string& path, uint64_t seed_offset, bool trace,
                      campaign::CompiledCampaign* compiled, double* load_s, double* compile_s,
                      std::string* error) {
  campaign::Spec spec;
  bool ok = true;
  *load_s = timed("campaign.load " + path, "campaign",
                  [&] { ok = campaign::load_spec_file(path, &spec, error); });
  if (!ok) {
    return false;
  }
  spec.seed += seed_offset;
  spec.obs_profile = true;  // phase timers only: three clock reads per run
  if (trace) {
    spec.obs_trace = obs::TraceConfig{};
    spec.obs_trace.enabled = true;
  }
  *compile_s = timed("campaign.compile " + spec.name, "campaign",
                     [&] { ok = campaign::compile_campaign(spec, compiled, error); });
  return ok;
}

// --- Subcommands -------------------------------------------------------------

struct Args {
  std::vector<std::string> specs;
  std::string out_dir;
  std::string fault;
  uint64_t seed_offset = 0;
  unsigned workers = 4;
  uint32_t shards = 1;
  bool trace = false;
  bool baseline_only = false;  // drop the cells: a one-unit campaign
  bool probe = false;
};

int fail(const std::string& message) {
  std::printf("%s\n", Obj().add("error", message).str().c_str());
  return 2;
}

int cmd_machine() {
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  std::printf("%s\n", Obj()
                          .add("compiler", std::string(PERFBENCH_COMPILER))
                          .add("build_type", std::string(PERFBENCH_BUILD_TYPE))
                          .add("asserts_live", asserts)
                          .str()
                          .c_str());
  return 0;
}

// The units of one finished campaign, in the engine's dispatch order
// (baseline first, then cells).
struct UnitView {
  std::string label;
  const campaign::UnitStatus* status;
  const experiment::RunResult* result;
};

std::vector<UnitView> units_of(const campaign::CompiledCampaign& compiled,
                               const campaign::CampaignOutcome& outcome) {
  std::vector<UnitView> units;
  if (compiled.spec.baseline) {
    units.push_back({"baseline", &outcome.baseline_status, &outcome.baseline});
  }
  for (size_t k = 0; k < compiled.cells.size(); ++k) {
    units.push_back({compiled.cells[k].label, &outcome.cell_status[k], &outcome.cells[k]});
  }
  return units;
}

// Unit spans: the runner hands unit i to whichever worker frees up first, so
// replaying that closed loop with each unit's measured total_ms places the
// units on worker lanes. Durations are measured; start offsets are derived.
void unit_spans(const std::string& campaign_name, const std::vector<UnitView>& units,
                unsigned workers, int run_span) {
  const double run_start = g_spans[run_span].start_s;
  std::vector<double> free_at(std::max(1u, workers), run_start);
  for (const UnitView& u : units) {
    const obs::RunProfile& p = u.result->profile;
    const size_t lane = static_cast<size_t>(
        std::min_element(free_at.begin(), free_at.end()) - free_at.begin());
    const double start = free_at[lane];
    const std::string name = campaign_name + "/" + u.label;
    const int lane_id = static_cast<int>(lane + 1);
    const int unit = add_span("unit " + name, "experiment", run_span, lane_id, start,
                              p.total_ms / 1e3);
    phase_spans(name + " ", unit, lane_id, start, p);
    free_at[lane] = start + p.total_ms / 1e3;
  }
}

int cmd_campaigns(const Args& args) {
  if (args.specs.empty() || args.out_dir.empty()) {
    return fail("campaigns needs --out and at least one --spec");
  }
  experiment::ParallelRunner::set_default_workers(args.workers);
  campaign::RunOptions options;
  options.quiet = true;
  std::string error;
  if (!campaign::parse_fault_plan(args.fault, &options.faults, &error)) {
    return fail(error);
  }
  const uint64_t rss_before_kb = obs::vm_rss_kb();
  const double wall_start = now_s();
  std::vector<std::string> campaigns;
  ObsCounts obs_counts;
  for (const std::string& path : args.specs) {
    campaign::CompiledCampaign compiled;
    double load_s = 0.0;
    double compile_s = 0.0;
    if (!load_and_compile(path, args.seed_offset, args.trace, &compiled, &load_s, &compile_s,
                          &error)) {
      return fail(error);
    }
    if (args.baseline_only) {
      compiled.cells.clear();
    }
    const std::string& name = compiled.spec.name;
    options.out_dir = args.out_dir + "/" + name;
    campaign::CampaignOutcome outcome;
    bool ok = true;
    int run_span = -1;
    const double run_s = timed(
        "campaign.run " + name, "campaign",
        [&] { ok = campaign::run_campaign(compiled, options, &outcome, &error); }, &run_span);
    if (!ok) {
      return fail(error);
    }
    const std::vector<UnitView> units = units_of(compiled, outcome);
    unit_spans(name, units, outcome.workers_used, run_span);

    Obj record;
    record.add("name", name)
        .add("load_s", load_s)
        .add("compile_s", compile_s)
        .add("run_s", run_s)
        .add("workers", static_cast<uint64_t>(outcome.workers_used))
        .add("peers", static_cast<uint64_t>(compiled.spec.peers));

    std::vector<std::string> resume_errors(units.size());
    if (args.trace) {
      std::string manifest;
      record.add("render_s", timed("campaign.render " + name, "campaign", [&] {
        manifest = campaign::render_manifest(compiled, outcome);
      }));
      campaign::JournalContents journal;
      record.add("replay_s", timed("campaign.replay " + name, "campaign", [&] {
        ok = campaign::read_journal(outcome.journal_path, &journal, &error);
      }));
      if (!ok) {
        return fail(error);
      }
      record.add("journal_bytes", file_bytes(outcome.journal_path));
      // Manifest, cells CSV, figure and payoff files; the per-unit trace
      // artifacts are counted by obs.trace_bytes instead.
      uint64_t artifact_bytes = 0;
      for (const std::string& file : outcome.files_written) {
        if (!file.ends_with(".trace.bin")) {
          artifact_bytes += file_bytes(file);
        }
      }
      record.add("artifact_bytes", artifact_bytes);
      // The reads-beside-writes path: resume over the finished journal must
      // replay every unit and reproduce every result bit for bit.
      campaign::RunOptions resume_options = options;
      resume_options.resume = true;
      resume_options.faults = campaign::FaultPlan{};
      campaign::CampaignOutcome resumed;
      record.add("resume_s", timed("campaign.resume " + name, "campaign", [&] {
        ok = campaign::run_campaign(compiled, resume_options, &resumed, &error);
      }));
      if (!ok) {
        return fail(error);
      }
      const std::vector<UnitView> again = units_of(compiled, resumed);
      for (size_t i = 0; i < units.size(); ++i) {
        if (units[i].status->ok &&
            (!again[i].status->ok || !again[i].status->from_journal ||
             result_bytes(*again[i].result) != result_bytes(*units[i].result))) {
          resume_errors[i] = "resume did not reproduce the unit from the journal";
        }
      }
      for (const UnitView& u : units) {
        if (u.status->ok && u.result->obs_events.enabled) {
          obs_counts.add(u.result->obs_events, name + "/" + u.label);
        }
      }
    }

    std::vector<std::string> unit_records;
    for (size_t i = 0; i < units.size(); ++i) {
      const UnitView& u = units[i];
      const bool unit_ok = u.status->ok && resume_errors[i].empty();
      const std::string unit_error = u.status->ok ? resume_errors[i] : u.status->error;
      const std::string key = name + "/" + u.label;
      unit_records.push_back(unit_json(key, key, unit_ok, unit_error, *u.result));
    }
    record.raw("units", array(unit_records));
    campaigns.push_back(record.str());
  }
  Obj out;
  out.add("wall_s", now_s() - wall_start)
      .add("rss_before_kb", rss_before_kb)
      .add("hwm_kb", obs::vm_hwm_kb())
      .raw("campaigns", array(campaigns));
  if (args.trace) {
    out.raw("obs", obs_counts.json()).raw("spans", spans_json());
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int cmd_scenario(const Args& args) {
  if (args.specs.size() != 1) {
    return fail("scenario needs exactly one --spec");
  }
  std::string error;
  campaign::CompiledCampaign compiled;
  double load_s = 0.0;
  double compile_s = 0.0;
  const double wall_start = now_s();
  if (!load_and_compile(args.specs[0], args.seed_offset, false, &compiled, &load_s, &compile_s,
                        &error)) {
    return fail(error);
  }
  // The baseline config run directly. Its outputs differ from the campaign's
  // baseline unit (a campaign unit does not carry mean_observed_gap_days), so
  // it has expected outputs of its own.
  const std::string key = compiled.spec.name + "/baseline@run_scenario";
  experiment::ScenarioConfig config = compiled.base;
  config.shards = args.probe ? 1 : args.shards;

  // Runs `c` once as a timed experiment.run_scenario span; exceptions become
  // a failed record instead of ending the process.
  const auto run = [&](const std::string& name, const experiment::ScenarioConfig& c,
                       experiment::RunResult* result, std::string* record) {
    bool ok = true;
    std::string what;
    int span = -1;
    timed(
        "experiment.run_scenario " + name, "experiment",
        [&] {
          try {
            *result = experiment::run_scenario(c);
          } catch (const std::exception& e) {
            ok = false;
            what = e.what();
          }
        },
        &span);
    if (ok) {
      phase_spans(name + " ", span, 0, g_spans[span].start_s, result->profile);
    }
    *record = unit_json(key, key + " " + name, ok, what, *result);
    return ok;
  };

  Obj out;
  out.add("load_s", load_s)
      .add("compile_s", compile_s)
      .add("peers", static_cast<uint64_t>(config.peer_count + config.newcomer_count))
      .add("rss_before_kb", obs::vm_rss_kb());
  experiment::RunResult result;
  std::string record;
  const bool ok = run(config.shards > 1 ? "shards" + std::to_string(config.shards) : "serial",
                      config, &result, &record);
  out.add("wall_s", now_s() - wall_start).add("hwm_kb", obs::vm_hwm_kb());
  if (!args.probe) {
    out.raw("units", array({record}));
    std::printf("%s\n", out.str().c_str());
    return 0;
  }

  // Sharding probe: the same config at 2 shards with the engine profile
  // attached, on the heap the serial run warmed. The result must be
  // bit-identical to serial except peak_queue_depth.
  experiment::ScenarioConfig sharded_config = config;
  sharded_config.shards = 2;
  experiment::RunResult sharded;
  std::string sharded_record;
  if (run("shards2", sharded_config, &sharded, &sharded_record) && ok) {
    experiment::RunResult a = result;
    experiment::RunResult b = sharded;
    a.peak_queue_depth = b.peak_queue_depth = 0;
    if (result_bytes(a) != result_bytes(b)) {
      sharded_record = unit_json(key, key + " shards2", false,
                                 "2-shard result differs from serial", sharded);
    }
  }
  const obs::EngineProfile& engine = sharded.profile.engine;
  double occupancy_sum = 0.0;
  uint64_t occupancy_windows = 0;
  for (size_t k = 0; k < engine.occupancy.size(); ++k) {
    occupancy_sum += static_cast<double>(k) * static_cast<double>(engine.occupancy[k]);
    occupancy_windows += engine.occupancy[k];
  }
  out.raw("units", array({record, sharded_record}))
      .raw("shard2", Obj()
                         .add("serial_run_s", result.profile.run_ms / 1e3)
                         .add("run_s", sharded.profile.run_ms / 1e3)
                         .add("windows", engine.windows)
                         .add("barrier_stall_frac", engine.barrier_stall_fraction())
                         .add("occupancy_mean", occupancy_windows > 0
                                                    ? occupancy_sum / occupancy_windows
                                                    : 0.0)
                         .str())
      .raw("spans", spans_json());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

bool parse_args(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--spec") {
      args->specs.push_back(value);
    } else if (flag == "--out") {
      args->out_dir = value;
    } else if (flag == "--fault") {
      args->fault = value;
    } else if (flag == "--seed-offset") {
      args->seed_offset = std::stoull(value);
    } else if (flag == "--workers") {
      args->workers = static_cast<unsigned>(std::stoul(value));
    } else if (flag == "--shards") {
      args->shards = static_cast<uint32_t>(std::stoul(value));
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--baseline-only") {
      args->baseline_only = value == "1";
    } else if (flag == "--probe") {
      args->probe = value == "1";
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return fail("usage: perfbench_harness machine|campaigns|scenario [flags]");
  }
  const std::string command = argv[1];
  Args args;
  std::string error;
  if (!parse_args(argc, argv, &args, &error)) {
    return fail(error);
  }
  if (command == "machine") {
    return cmd_machine();
  }
  if (command == "campaigns") {
    return cmd_campaigns(args);
  }
  if (command == "scenario") {
    return cmd_scenario(args);
  }
  return fail("unknown command " + command);
}
