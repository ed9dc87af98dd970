#include "campaign/spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <variant>

namespace lockss::campaign {
namespace {

// --- The scalar field table ----------------------------------------------
//
// Every numeric or boolean knob of a campaign file is one row of kFields:
// its section, JSON key, sweep-axis name (if it is sweepable), file unit,
// allowed range, and the member it sets. The rows drive the section
// readers, the one range check that section members and sweep values
// share, applying a sweep value to a cell, and the spec echo that the
// manifest writes and the campaign hash covers (write_spec_echo). Adding a
// knob means adding a row. Cross-field rules and structured members (phase
// kind and defection, policy and strategy tables, observability kinds) stay
// hand-written in parse_spec.

enum class Section : uint8_t {
  kTop,  // members of the top-level object
  kDeployment,
  kDamage,
  kProtocol,
  kDynamics,
  kOperators,  // also each tournament operator strategy
  kNetwork,
  kFaults,
  kObservability,
  kAdversaryPolicy,
  kPhase,  // each `adversary` pipeline phase
};

const char* section_name(Section section) {
  constexpr const char* kNames[] = {
      "",         "deployment",     "damage",        "protocol",         "dynamics", "operators",
      "network",  "network_faults", "observability", "adversary_policy", "adversary",
  };
  static_assert(std::size(kNames) == static_cast<size_t>(Section::kPhase) + 1);
  return kNames[static_cast<size_t>(section)];
}

// How the file writes a value, and what the member stores.
enum class Unit : uint8_t {
  kNumber,   // double, stored as written
  kPercent,  // double fraction; the file writes percent
  kCount,    // uint32_t; a whole number in [0, 2^32)
  kCount64,  // uint64_t; a whole number in [0, 2^53] (exact in a double)
  kFlag,     // bool; a sweep value or protocol override is true when nonzero
  kMs,       // sim::SimTime, via SimTime::seconds(ms / 1000)
  kHours,    // sim::SimTime, via SimTime::hours
  kDays,     // sim::SimTime, via SimTime::days
  kMonths,   // sim::SimTime, via SimTime::months
  kYears,    // sim::SimTime, via SimTime::years
};

constexpr double kInf = std::numeric_limits<double>::infinity();

// Allowed file values; `rule` is the diagnostic, worded so one reason
// serves a section member and a sweep value alike.
struct Range {
  double lo;
  double hi;
  bool lo_open;
  const char* rule;

  bool contains(double v) const { return (lo_open ? v > lo : v >= lo) && v <= hi; }
};

constexpr Range kAny{-kInf, kInf, false, ""};
constexpr Range kNonNegative{0.0, kInf, false, "must be non-negative"};
constexpr Range kPositive{0.0, kInf, true, "must be positive"};
constexpr Range kAtLeastOne{1.0, kInf, false, "must be >= 1"};
constexpr Range kProbability{0.0, 1.0, false, "must be within [0, 1]"};
constexpr Range kFraction{0.0, 1.0, true, "must be within (0, 1]"};
constexpr Range kPercentage{0.0, 100.0, false, "must be within [0, 100]"};

// The structs a spec's scalars live in. A row's slot resolves its member
// against the one its section names.
struct Scope {
  Spec* spec = nullptr;
  adversary::AdversaryPhase* phase = nullptr;             // kPhase rows
  dynamics::OperatorResponseConfig* operators = nullptr;  // kOperators rows
  protocol::Params* params = nullptr;                     // kProtocol rows
};

using Slot = std::variant<double*, uint32_t*, uint64_t*, bool*, sim::SimTime*>;

struct Field {
  Section section;
  const char* key;   // member name in the section (and in the echo)
  const char* axis;  // sweep-axis name; kSweep = the key; nullptr = not sweepable
  Unit unit;
  Range range;
  Slot (*slot)(const Scope&);
};

constexpr const char* kSweep = "";

const char* axis_name(const Field& f) { return *f.axis != '\0' ? f.axis : f.key; }

#define FIELD_AT(member) [](const Scope& s) -> Slot { return &s.member; }

using enum Section;
using enum Unit;

// The adversary_policy rows carry no range: adversary::validate_policies
// checks those knobs together with each rule table they drive (a
// tournament's knob-only section is checked per strategy).
const Field kFields[] = {
    {kTop, "trace_days", nullptr, kDays, kNonNegative, FIELD_AT(spec->trace_interval)},
    {kTop, "baseline", nullptr, kFlag, kAny, FIELD_AT(spec->baseline)},

    {kDeployment, "peers", kSweep, kCount, kAtLeastOne, FIELD_AT(spec->peers)},
    {kDeployment, "aus", kSweep, kCount, kAtLeastOne, FIELD_AT(spec->aus)},
    {kDeployment, "au_coverage", kSweep, kNumber, kFraction, FIELD_AT(spec->au_coverage)},
    {kDeployment, "newcomers", kSweep, kCount, kAny, FIELD_AT(spec->newcomers)},
    {kDeployment, "newcomer_window_days", kSweep, kDays, kNonNegative,
     FIELD_AT(spec->newcomer_join_window)},
    {kDeployment, "duration_years", kSweep, kYears, kPositive, FIELD_AT(spec->duration)},
    {kDeployment, "seed", nullptr, kCount64, kAny, FIELD_AT(spec->seed)},
    {kDeployment, "seeds", nullptr, kCount, kAtLeastOne, FIELD_AT(spec->seeds)},
    {kDeployment, "layers", nullptr, kCount, kAny, FIELD_AT(spec->layers)},

    {kDamage, "enabled", nullptr, kFlag, kAny, FIELD_AT(spec->enable_damage)},
    {kDamage, "mean_disk_years_between_failures", nullptr, kNumber, kPositive,
     FIELD_AT(spec->damage_mtbf_disk_years)},
    {kDamage, "aus_per_disk", nullptr, kNumber, kPositive, FIELD_AT(spec->damage_aus_per_disk)},

    {kProtocol, "quorum", kSweep, kCount, kAny, FIELD_AT(params->quorum)},
    {kProtocol, "inner_circle_factor", kSweep, kCount, kAny, FIELD_AT(params->inner_circle_factor)},
    {kProtocol, "max_disagreeing", kSweep, kCount, kAny, FIELD_AT(params->max_disagreeing)},
    {kProtocol, "inter_poll_days", kSweep, kDays, kPositive, FIELD_AT(params->inter_poll_interval)},
    {kProtocol, "nominations_per_vote", kSweep, kCount, kAny,
     FIELD_AT(params->nominations_per_vote)},
    {kProtocol, "outer_circle_size", kSweep, kCount, kAny, FIELD_AT(params->outer_circle_size)},
    {kProtocol, "introduction_fraction", kSweep, kNumber, kProbability,
     FIELD_AT(params->introduction_fraction)},
    {kProtocol, "reference_list_target", kSweep, kCount, kAny,
     FIELD_AT(params->reference_list_target)},
    {kProtocol, "friends_per_poll", kSweep, kCount, kAny, FIELD_AT(params->friends_per_poll)},
    {kProtocol, "friends_list_size", kSweep, kCount, kAny, FIELD_AT(params->friends_list_size)},
    {kProtocol, "unknown_drop_probability", kSweep, kNumber, kProbability,
     FIELD_AT(params->unknown_drop_probability)},
    {kProtocol, "debt_drop_probability", kSweep, kNumber, kProbability,
     FIELD_AT(params->debt_drop_probability)},
    {kProtocol, "refractory_days", kSweep, kDays, kNonNegative,
     FIELD_AT(params->refractory_period)},
    {kProtocol, "consideration_rate_multiplier", kSweep, kNumber, kNonNegative,
     FIELD_AT(params->consideration_rate_multiplier)},
    // A zero decay interval means "no decay".
    {kProtocol, "grade_decay_months", kSweep, kMonths, kNonNegative,
     FIELD_AT(params->grade_decay_interval)},
    {kProtocol, "introductory_effort_fraction", kSweep, kNumber, kProbability,
     FIELD_AT(params->introductory_effort_fraction)},
    {kProtocol, "frivolous_repair_probability", kSweep, kNumber, kProbability,
     FIELD_AT(params->frivolous_repair_probability)},
    {kProtocol, "adaptive_acceptance", kSweep, kFlag, kAny, FIELD_AT(params->adaptive_acceptance)},
    {kProtocol, "adaptive_scale", kSweep, kNumber, kNonNegative, FIELD_AT(params->adaptive_scale)},

    {kDynamics, "leave_rate_per_peer_year", "churn_leave_rate", kNumber, kNonNegative,
     FIELD_AT(spec->churn.leave_rate_per_peer_year)},
    {kDynamics, "crash_rate_per_peer_year", "churn_crash_rate", kNumber, kNonNegative,
     FIELD_AT(spec->churn.crash_rate_per_peer_year)},
    {kDynamics, "mean_downtime_days", "churn_mean_downtime_days", kNumber, kPositive,
     FIELD_AT(spec->churn.mean_downtime_days)},
    {kDynamics, "arrival_rate_per_year", "churn_arrival_rate", kNumber, kNonNegative,
     FIELD_AT(spec->churn.arrival_rate_per_year)},
    {kDynamics, "regions", nullptr, kCount, kAny, FIELD_AT(spec->churn.regions)},
    {kDynamics, "regional_outage_rate_per_year", "regional_outage_rate", kNumber, kNonNegative,
     FIELD_AT(spec->churn.regional_outage_rate_per_year)},
    {kDynamics, "regional_outage_days", nullptr, kNumber, kPositive,
     FIELD_AT(spec->churn.regional_outage_days)},
    {kDynamics, "regional_recovery_stagger_hours", nullptr, kNumber, kNonNegative,
     FIELD_AT(spec->churn.regional_recovery_stagger_hours)},
    {kDynamics, "regional_state_loss", nullptr, kFlag, kAny,
     FIELD_AT(spec->churn.regional_state_loss)},

    {kOperators, "detection_latency_days", kSweep, kDays, kNonNegative,
     FIELD_AT(operators->detection_latency)},
    {kOperators, "recrawl_cost_factor", nullptr, kNumber, kPositive,
     FIELD_AT(operators->recrawl_cost_factor)},

    {kNetwork, "min_latency_ms", nullptr, kMs, kNonNegative, FIELD_AT(spec->network.min_latency)},
    {kNetwork, "max_latency_ms", nullptr, kMs, kNonNegative, FIELD_AT(spec->network.max_latency)},

    {kFaults, "loss_rate", kSweep, kNumber, kProbability, FIELD_AT(spec->faults.loss_rate)},
    {kFaults, "dup_rate", kSweep, kNumber, kProbability, FIELD_AT(spec->faults.dup_rate)},
    {kFaults, "jitter_ms", kSweep, kMs, kNonNegative, FIELD_AT(spec->faults.jitter)},
    {kFaults, "burst_outage_rate", kSweep, kNumber, kProbability,
     FIELD_AT(spec->faults.burst_outage_rate)},
    {kFaults, "burst_cycle_days", nullptr, kDays, kPositive, FIELD_AT(spec->faults.burst_cycle)},

    {kObservability, "trace", nullptr, kFlag, kAny, FIELD_AT(spec->obs_trace.enabled)},
    {kObservability, "profile", nullptr, kFlag, kAny, FIELD_AT(spec->obs_profile)},
    {kObservability, "sample_rate", nullptr, kNumber, kProbability,
     FIELD_AT(spec->obs_trace.sample_rate)},
    {kObservability, "ring_capacity", nullptr, kCount64, kAny,
     FIELD_AT(spec->obs_trace.ring_capacity)},

    {kAdversaryPolicy, "reaction_latency_hours", nullptr, kHours, kAny,
     FIELD_AT(spec->adversary_policy.reaction_latency)},
    {kAdversaryPolicy, "sensor_interval_days", nullptr, kDays, kAny,
     FIELD_AT(spec->adversary_policy.sensor_interval)},
    {kAdversaryPolicy, "cooldown_days", nullptr, kDays, kAny,
     FIELD_AT(spec->adversary_policy.cooldown)},
    {kAdversaryPolicy, "outage_threshold", nullptr, kNumber, kAny,
     FIELD_AT(spec->adversary_policy.outage_threshold)},
    {kAdversaryPolicy, "backoff_threshold", nullptr, kNumber, kAny,
     FIELD_AT(spec->adversary_policy.backoff_threshold)},
    {kAdversaryPolicy, "collapse_threshold", nullptr, kNumber, kAny,
     FIELD_AT(spec->adversary_policy.collapse_threshold)},
    {kAdversaryPolicy, "dormant_mean_days", nullptr, kDays, kAny,
     FIELD_AT(spec->adversary_policy.dormant_mean)},
    {kAdversaryPolicy, "throttle_pause_days", nullptr, kDays, kAny,
     FIELD_AT(spec->adversary_policy.throttle_pause)},

    {kPhase, "attack_days", kSweep, kDays, kNonNegative, FIELD_AT(phase->cadence.attack_duration)},
    {kPhase, "recuperation_days", kSweep, kDays, kNonNegative,
     FIELD_AT(phase->cadence.recuperation)},
    {kPhase, "coverage_percent", kSweep, kPercent, kPercentage, FIELD_AT(phase->cadence.coverage)},
    {kPhase, "start_days", kSweep, kDays, kNonNegative, FIELD_AT(phase->start)},
    {kPhase, "stop_days", kSweep, kDays, kNonNegative, FIELD_AT(phase->stop)},
    {kPhase, "minion_count", kSweep, kCount, kAny, FIELD_AT(phase->minion_count)},
    {kPhase, "minion_id_base", nullptr, kCount, kAny, FIELD_AT(phase->minion_id_base)},
};

#undef FIELD_AT

const Field* find_field(Section section, const std::string& key) {
  for (const Field& f : kFields) {
    if (f.section == section && key == f.key) {
      return &f;
    }
  }
  return nullptr;
}

const Field* find_axis(const std::string& name) {
  for (const Field& f : kFields) {
    if (f.axis != nullptr && name == axis_name(f)) {
      return &f;
    }
  }
  return nullptr;
}

// Whole-number check for count rows, made before anything is cast; empty
// string = OK.
std::string integer_error(const Field& f, double v) {
  if (f.unit != Unit::kCount && f.unit != Unit::kCount64) {
    return "";
  }
  if (!(v >= 0.0) || v != std::floor(v)) {
    return f.unit == Unit::kCount
               ? "must be a non-negative integer (whole non-negative 32-bit numbers only)"
               : "must be a non-negative integer";
  }
  if (f.unit == Unit::kCount && v > 4294967295.0) {
    return "exceeds the 32-bit range";
  }
  if (v > 9007199254740992.0) {  // 2^53: exact-double ceiling
    return "too large to represent exactly (max 2^53)";
  }
  return "";
}

// Why `v` is not a legal file value of `f` (empty string = OK). Section
// members and sweep values both answer to this one check.
std::string value_error(const Field& f, double v) {
  std::string why = integer_error(f, v);
  if (why.empty() && !f.range.contains(v)) {
    why = f.range.rule;
  }
  return why;
}

// A time in the file's unit, through the SimTime factory for that unit.
sim::SimTime to_time(Unit unit, double v) {
  switch (unit) {
    case Unit::kMs:
      return sim::SimTime::seconds(v / 1000.0);
    case Unit::kHours:
      return sim::SimTime::hours(v);
    case Unit::kMonths:
      return sim::SimTime::months(v);
    case Unit::kYears:
      return sim::SimTime::years(v);
    default:
      return sim::SimTime::days(v);
  }
}

double from_time(Unit unit, sim::SimTime t) {
  switch (unit) {
    case Unit::kMs:
      return t.to_seconds() * 1000.0;
    case Unit::kHours:
      return t.to_seconds() / 3600.0;
    case Unit::kMonths:
      return t.to_days() / 30.0;
    case Unit::kYears:
      return t.to_years();
    default:
      return t.to_days();
  }
}

// Stores a checked file value into the member `f` names.
void store(const Field& f, const Scope& scope, double v) {
  const Slot slot = f.slot(scope);
  if (double* const* p = std::get_if<double*>(&slot)) {
    **p = f.unit == Unit::kPercent ? v / 100.0 : v;
  } else if (uint32_t* const* p = std::get_if<uint32_t*>(&slot)) {
    **p = static_cast<uint32_t>(v);
  } else if (uint64_t* const* p = std::get_if<uint64_t*>(&slot)) {
    **p = static_cast<uint64_t>(v);
  } else if (bool* const* p = std::get_if<bool*>(&slot)) {
    **p = v != 0.0;
  } else {
    *std::get<sim::SimTime*>(slot) = to_time(f.unit, v);
  }
}

// Writes the member `f` names: in the file's unit, or (`exact`) as stored.
void write_value(const Field& f, const Scope& scope, bool exact, JsonWriter& w) {
  const Slot slot = f.slot(scope);
  if (double* const* p = std::get_if<double*>(&slot)) {
    w.value(f.unit == Unit::kPercent && !exact ? **p * 100.0 : **p);
  } else if (uint32_t* const* p = std::get_if<uint32_t*>(&slot)) {
    w.value(static_cast<uint64_t>(**p));
  } else if (uint64_t* const* p = std::get_if<uint64_t*>(&slot)) {
    w.value(**p);
  } else if (bool* const* p = std::get_if<bool*>(&slot)) {
    w.value(**p);
  } else if (const sim::SimTime t = *std::get<sim::SimTime*>(slot); exact) {
    w.value(t.ns());
  } else {
    w.value(from_time(f.unit, t));
  }
}

void write_fields(Section section, const Scope& scope, bool exact, JsonWriter& w) {
  for (const Field& f : kFields) {
    if (f.section == section) {
      w.key(f.key);
      write_value(f, scope, exact, w);
    }
  }
}

// Observability event groups (`observability.kinds`).
struct KindGroup {
  const char* name;
  uint32_t mask;
};
constexpr KindGroup kKindGroups[] = {
    {"poll", obs::kMaskPoll},         {"voter", obs::kMaskVoter},
    {"churn", obs::kMaskChurn},       {"operator", obs::kMaskOperator},
    {"fault", obs::kMaskFault},       {"adversary", obs::kMaskAdversary},
};

bool parse_defection(const std::string& name, adversary::DefectionPoint* out) {
  for (adversary::DefectionPoint point :
       {adversary::DefectionPoint::kIntro, adversary::DefectionPoint::kRemaining,
        adversary::DefectionPoint::kNone}) {
    if (name == adversary::defection_point_name(point)) {
      *out = point;
      return true;
    }
  }
  return false;
}

// --- Diagnostics-carrying object reader -----------------------------------

// Wraps one JSON object: typed member access with "path:line: field: why"
// diagnostics, plus unknown-member detection (catches typos instead of
// silently ignoring them).
class ObjectReader {
 public:
  ObjectReader(const Json& json, const std::string& source, const std::string& field_prefix,
               std::string* error)
      : json_(json), source_(source), prefix_(field_prefix), error_(error) {}

  bool fail(int line, const std::string& field, const std::string& reason) {
    if (ok_) {  // keep the first error
      *error_ = source_ + ":" + std::to_string(line) + ": " + qualify(field) + ": " + reason;
      ok_ = false;
    }
    return false;
  }

  // Object-shape check; call first.
  bool expect_object() {
    if (!json_.is_object()) {
      return fail(json_.line, prefix_.empty() ? "(top level)" : prefix_,
                  std::string("expected an object, got ") + Json::type_name(json_.type));
    }
    return true;
  }

  const Json* member(const std::string& name) {
    consumed_.insert(name);
    return json_.find(name);
  }

  bool number(const std::string& name, double* out) {
    const Json* m = member(name);
    if (m == nullptr) {
      return true;  // optional; *out keeps its default
    }
    if (!m->is_number()) {
      return fail(m->line, name,
                  std::string("expected a number, got ") + Json::type_name(m->type));
    }
    *out = m->number_value;
    return true;
  }

  // Structured indices (a sweep's or a policy rule's `phase`).
  bool unsigned_int(const std::string& name, uint32_t* out) {
    const Json* m = member(name);
    if (m == nullptr) {
      return true;
    }
    const double v = m->is_number() ? m->number_value : -1.0;
    if (!(v >= 0.0) || v != std::floor(v)) {
      return fail(m->line, name, "expected a non-negative integer");
    }
    if (v > 4294967295.0) {
      return fail(m->line, name, "exceeds the 32-bit range");
    }
    *out = static_cast<uint32_t>(v);
    return true;
  }

  bool boolean(const std::string& name, bool* out) {
    const Json* m = member(name);
    if (m == nullptr) {
      return true;
    }
    if (!m->is_bool()) {
      return fail(m->line, name, std::string("expected a bool, got ") + Json::type_name(m->type));
    }
    *out = m->bool_value;
    return true;
  }

  bool string(const std::string& name, std::string* out) {
    const Json* m = member(name);
    if (m == nullptr) {
      return true;
    }
    if (!m->is_string()) {
      return fail(m->line, name,
                  std::string("expected a string, got ") + Json::type_name(m->type));
    }
    *out = m->string_value;
    return true;
  }

  // Reads this object's `section` rows into `scope`; a member the file
  // omits keeps its default. Type and integer errors cite the member's
  // line, range errors the object's.
  bool fields(Section section, const Scope& scope) {
    for (const Field& f : kFields) {
      if (f.section != section) {
        continue;
      }
      const Json* m = member(f.key);
      if (m == nullptr) {
        continue;
      }
      const bool flag = f.unit == Unit::kFlag;
      if (flag ? !m->is_bool() : !m->is_number()) {
        return fail(m->line, f.key,
                    std::string(flag ? "expected a bool, got " : "expected a number, got ") +
                        Json::type_name(m->type));
      }
      const double v = flag ? (m->bool_value ? 1.0 : 0.0) : m->number_value;
      if (!check_value(f, v, m->line)) {
        return false;
      }
      store(f, scope, v);
    }
    return true;
  }

  // value_error's two checks for a member of this object: an integer error
  // cites the member's line, a range error the object's.
  bool check_value(const Field& f, double v, int member_line) {
    const std::string why = integer_error(f, v);
    if (!why.empty()) {
      return fail(member_line, f.key, why);
    }
    return f.range.contains(v) || fail(json_.line, f.key, f.range.rule);
  }

  // Errors on members this reader never asked about.
  bool finish() {
    if (!ok_) {
      return false;
    }
    for (const auto& [name, value] : json_.object_members) {
      if (!consumed_.contains(name)) {
        return fail(value.line, name, "unknown member (see docs/campaigns.md for the schema)");
      }
    }
    return true;
  }

  std::string qualify(const std::string& field) const {
    return prefix_.empty() ? field : prefix_ + "." + field;
  }

 private:
  const Json& json_;
  const std::string& source_;
  std::string prefix_;
  std::string* error_;
  std::set<std::string> consumed_;
  bool ok_ = true;
};
// One adversary trigger→action rule ({ trigger, action, phase?, factor? };
// docs/adversaries.md). Shared by the adversary_policy section and the
// tournament strategy tables. Phase-range and factor constraints are
// checked later via adversary::validate_policies (they need the pipeline).
bool parse_adversary_policy_rule(const Json& json, const std::string& source,
                                 const std::string& prefix, adversary::AdversaryPolicy* out,
                                 std::string* error) {
  ObjectReader p(json, source, prefix, error);
  if (!p.expect_object()) {
    return false;
  }
  std::string trigger;
  std::string action;
  uint32_t phase = 0;
  if (!p.string("trigger", &trigger) || !p.string("action", &action) ||
      !p.unsigned_int("phase", &phase) || !p.number("factor", &out->factor)) {
    return false;
  }
  out->phase = phase;
  if (trigger.empty()) {
    return p.fail(json.line, "trigger",
                  "required (alarm | backoff | outage | recovery | grade_collapse)");
  }
  if (!adversary::parse_policy_trigger(trigger, &out->trigger)) {
    const Json* m = json.find("trigger");
    return p.fail(m != nullptr ? m->line : json.line, "trigger",
                  "unknown trigger '" + trigger +
                      "' (expected alarm | backoff | outage | recovery | grade_collapse)");
  }
  if (action.empty()) {
    return p.fail(json.line, "action",
                  "required (switch_phase | retarget | throttle | go_dormant)");
  }
  if (!adversary::parse_policy_action(action, &out->action)) {
    const Json* m = json.find("action");
    return p.fail(m != nullptr ? m->line : json.line, "action",
                  "unknown action '" + action +
                      "' (expected switch_phase | retarget | throttle | go_dormant)");
  }
  return p.finish();
}

// One operator trigger→action rule; shared by the operators section and the
// tournament operator strategies.
bool parse_operator_policy_entry(const Json& entry, const std::string& source,
                                 const std::string& prefix, dynamics::OperatorPolicy* out,
                                 std::string* error) {
  ObjectReader p(entry, source, prefix, error);
  if (!p.expect_object()) {
    return false;
  }
  std::string trigger;
  std::string action;
  if (!p.string("trigger", &trigger) || !p.string("action", &action) ||
      !p.number("factor", &out->factor)) {
    return false;
  }
  if (!dynamics::parse_operator_trigger(trigger, &out->trigger)) {
    const Json* m = entry.find("trigger");
    return p.fail(m != nullptr ? m->line : entry.line, "trigger",
                  "unknown trigger '" + trigger + "' (expected alarm | recovery)");
  }
  if (!dynamics::parse_operator_action(action, &out->action)) {
    const Json* m = entry.find("action");
    return p.fail(m != nullptr ? m->line : entry.line, "action",
                  "unknown action '" + action +
                      "' (expected rekey | friend_refresh | rate_tighten | au_recrawl)");
  }
  if (out->action == dynamics::OperatorAction::kRateTighten &&
      (out->factor <= 0.0 || out->factor > 1.0)) {
    const Json* m = entry.find("factor");
    return p.fail(m != nullptr ? m->line : entry.line, "factor",
                  "rate_tighten factor must be within (0, 1]");
  }
  return p.finish();
}

// Tournament strategy names become cell-label segments and payoff CSV
// headers, so the separators those formats use are reserved.
std::string check_strategy_name(const std::string& name) {
  if (name.empty()) {
    return "required";
  }
  if (name.find('/') != std::string::npos || name.find(' ') != std::string::npos ||
      name.find(',') != std::string::npos || name.find('_') != std::string::npos) {
    return "must not contain '/', '_', ',' or spaces (used in cell labels and the payoff CSV)";
  }
  return "";
}

bool parse_phase(const Json& json, const std::string& source, size_t index,
                 adversary::AdversaryPhase* out, std::string* error) {
  ObjectReader reader(json, source, "adversary[" + std::to_string(index) + "]", error);
  if (!reader.expect_object()) {
    return false;
  }
  std::string kind;
  if (!reader.string("kind", &kind)) {
    return false;
  }
  if (kind.empty()) {
    return reader.fail(json.line, "kind", "required (pipe_stoppage | admission_flood | "
                                          "brute_force | grade_recovery | vote_flood)");
  }
  if (!adversary::parse_phase_kind(kind, &out->kind)) {
    return reader.fail(json.find("kind")->line, "kind",
                       "unknown attack module '" + kind +
                           "' (expected pipe_stoppage | admission_flood | brute_force | "
                           "grade_recovery | vote_flood)");
  }
  std::string defection;
  if (!reader.fields(Section::kPhase, Scope{.phase = out}) ||
      !reader.string("defection", &defection)) {
    return false;
  }
  if (!defection.empty() && !parse_defection(defection, &out->defection)) {
    return reader.fail(json.find("defection")->line, "defection",
                       "unknown defection point '" + defection +
                           "' (expected INTRO | REMAINING | NONE)");
  }
  return reader.finish();
}

bool parse_axis(const Json& json, const std::string& source, size_t index,
                const adversary::AdversaryPipeline& pipeline, SweepAxis* out,
                std::string* error) {
  ObjectReader reader(json, source, "sweep[" + std::to_string(index) + "]", error);
  if (!reader.expect_object()) {
    return false;
  }
  out->line = json.line;
  uint32_t phase = 0;
  if (!reader.string("param", &out->param) || !reader.unsigned_int("phase", &phase) ||
      !reader.string("label", &out->label)) {
    return false;
  }
  out->phase = phase;
  if (out->param.empty()) {
    return reader.fail(json.line, "param", "required");
  }
  const bool defection = out->param == "defection";
  const Field* field = find_axis(out->param);
  if (field == nullptr && !defection) {
    std::string known;
    for (const std::string& name : axis_params()) {
      known += (known.empty() ? "" : ", ") + name;
    }
    return reader.fail(json.find("param")->line, "param",
                       "unknown sweep parameter '" + out->param + "' (known: " + known + ")");
  }
  if ((defection || field->section == Section::kPhase) && out->phase >= pipeline.size()) {
    return reader.fail(json.line, "phase",
                       "phase index " + std::to_string(out->phase) +
                           " out of range (pipeline has " + std::to_string(pipeline.size()) +
                           " phase(s))");
  }
  const Json* values = reader.member("values");
  if (values == nullptr || !values->is_array() || values->array_items.empty()) {
    return reader.fail(values != nullptr ? values->line : json.line, "values",
                       "required non-empty array");
  }
  for (const Json& item : values->array_items) {
    if (defection) {
      adversary::DefectionPoint ignored;
      if (!item.is_string() || !parse_defection(item.string_value, &ignored)) {
        return reader.fail(item.line, "values",
                           "defection values must be INTRO | REMAINING | NONE strings");
      }
      out->names.push_back(item.string_value);
      continue;
    }
    if (!item.is_number()) {
      return reader.fail(item.line, "values", "expected numbers");
    }
    const std::string why = value_error(*field, item.number_value);
    if (!why.empty()) {
      return reader.fail(item.line, "values", "'" + out->param + "' " + why);
    }
    out->values.push_back(item.number_value);
  }
  if (out->label.empty() && !out->categorical()) {
    // Numeric axes need a prefix to tell "d30" from "c30"; categorical
    // value names are self-describing.
    out->label = out->param.substr(0, 1);
  }
  return reader.finish();
}

std::string format_axis_value(const SweepAxis& axis, size_t index) {
  if (axis.categorical()) {
    return axis.names[index];
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", axis.values[index]);
  return buf;
}

// Sets one axis coordinate on a cell's copy of the spec. A protocol value
// becomes one more override, applied after the spec's own. Tournament
// strategy axes swap in their strategy's rule table or operator config.
void set_axis_value(const Spec& spec, const SweepAxis& axis, size_t index, Spec* cell) {
  if (axis.param == "adversary_strategy") {
    cell->adversary_policy.policies = spec.adversary_strategies[index].policies;
  } else if (axis.param == "operator_strategy") {
    cell->operators = spec.operator_strategies[index].operators;
  } else if (axis.categorical()) {
    parse_defection(axis.names[index], &cell->pipeline[axis.phase].defection);
  } else if (const Field* f = find_axis(axis.param); f->section == Section::kProtocol) {
    cell->protocol_overrides.emplace_back(f->key, axis.values[index]);
  } else {
    adversary::AdversaryPhase* phase =
        f->section == Section::kPhase ? &cell->pipeline[axis.phase] : nullptr;
    store(*f, Scope{cell, phase, &cell->operators, nullptr}, axis.values[index]);
  }
}

// Applies a spec's protocol overrides in order. Returns the first name that
// is unknown or out of range ("" = all applied): parse_spec vets them, but
// a hand-built Spec may not have gone through it.
std::string apply_overrides(const Spec& spec, protocol::Params* params) {
  for (const auto& [name, value] : spec.protocol_overrides) {
    const Field* f = find_field(Section::kProtocol, name);
    if (f == nullptr || !value_error(*f, value).empty()) {
      return name;
    }
    store(*f, Scope{.params = params}, value);
  }
  return "";
}

void write_adversary_rules(const std::vector<adversary::AdversaryPolicy>& rules, JsonWriter& w) {
  w.begin_array();
  for (const adversary::AdversaryPolicy& rule : rules) {
    w.begin_object();
    w.key("trigger").value(adversary::policy_trigger_name(rule.trigger));
    w.key("action").value(adversary::policy_action_name(rule.action));
    w.key("phase").value(static_cast<uint64_t>(rule.phase));
    w.key("factor").value(rule.factor);
    w.end_object();
  }
  w.end_array();
}

void write_operator_rules(const std::vector<dynamics::OperatorPolicy>& rules, JsonWriter& w) {
  w.begin_array();
  for (const dynamics::OperatorPolicy& rule : rules) {
    w.begin_object();
    w.key("trigger").value(dynamics::operator_trigger_name(rule.trigger));
    w.key("action").value(dynamics::operator_action_name(rule.action));
    w.key("factor").value(rule.factor);
    w.end_object();
  }
  w.end_array();
}

// The deployment-wide part of a spec (all but the adversary pipeline) as a
// scenario config.
bool lower(const Spec& spec, experiment::ScenarioConfig* c, std::string* error) {
  c->peer_count = spec.peers;
  c->au_count = spec.aus;
  c->au_coverage = spec.au_coverage;
  c->newcomer_count = spec.newcomers;
  c->newcomer_join_window = spec.newcomer_join_window;
  c->duration = spec.duration;
  c->seed = spec.seed;
  c->enable_damage = spec.enable_damage;
  c->damage.mean_disk_years_between_failures = spec.damage_mtbf_disk_years;
  c->damage.aus_per_disk = spec.damage_aus_per_disk;
  c->trace_interval = spec.trace_interval;
  // Dynamics are deployment properties, like newcomers: the adversary-free
  // baseline churns exactly as the attack cells do — and so is the
  // network, faults included (a lossy campaign's baseline is lossy too).
  c->churn = spec.churn;
  c->operators = spec.operators;
  c->adversary_policy = spec.adversary_policy;
  c->network = spec.network;
  c->faults = spec.faults;
  c->obs_trace = spec.obs_trace;
  c->obs_profile = spec.obs_profile;
  const std::string bad = apply_overrides(spec, &c->params);
  if (!bad.empty()) {
    *error = spec.source_path + ": unknown or out-of-range protocol override '" + bad + "'";
    return false;
  }
  return true;
}

// One `outputs.figure` entry (the member holds one such object or an array
// of them). Appends to spec->figures; the checks that need the sweep run
// here too, so axes and baseline must already be parsed.
bool parse_figure(const Json& json, const std::string& source, const std::string& prefix,
                  Spec* spec, std::string* error) {
  ObjectReader f(json, source, prefix, error);
  FigureOutput figure;
  if (!f.expect_object() || !f.string("metric", &figure.metric) ||
      !f.string("row_header", &figure.row_header) || !f.string("title", &figure.title) ||
      !f.string("x_label", &figure.x_label) || !f.boolean("log_x", &figure.log_x) ||
      !f.boolean("log_y", &figure.log_y) || !f.string("csv", &figure.csv) || !f.finish()) {
    return false;
  }
  if (figure.metric != "access_failure" && figure.metric != "delay_ratio" &&
      figure.metric != "friction") {
    return f.fail(json.line, "metric",
                  "unknown metric '" + figure.metric +
                      "' (expected access_failure | delay_ratio | friction)");
  }
  if (figure.csv.empty()) {
    return f.fail(json.line, "csv", "required");
  }
  for (const FigureOutput& other : spec->figures) {
    if (other.csv == figure.csv) {
      return f.fail(json.line, "csv", "'" + figure.csv + "' is written by another figure");
    }
  }
  if (figure.row_header.empty()) {
    return f.fail(json.line, "row_header", "required");
  }
  if (spec->axes.size() != 2) {
    return f.fail(json.line, "figure",
                  "figure outputs need exactly 2 sweep axes (rows, columns); this "
                  "campaign has " +
                      std::to_string(spec->axes.size()));
  }
  if (spec->axes[0].categorical() || spec->axes[1].categorical()) {
    return f.fail(json.line, "figure", "figure axes must be numeric");
  }
  if (!spec->baseline) {
    return f.fail(json.line, "figure",
                  "figure metrics are relative to the baseline; set baseline: true");
  }
  spec->figures.push_back(std::move(figure));
  return true;
}

}  // namespace

std::vector<std::string> axis_params() {
  std::vector<std::string> out;
  for (const Field& f : kFields) {
    if (f.axis != nullptr) {
      out.push_back(axis_name(f));
    }
  }
  out.push_back("defection");  // categorical, per phase
  return out;
}

std::vector<std::string> protocol_params() {
  std::vector<std::string> out;
  for (const Field& f : kFields) {
    if (f.section == Section::kProtocol) {
      out.push_back(f.key);
    }
  }
  return out;
}

void write_spec_echo(const Spec& spec, bool exact, JsonWriter* out) {
  JsonWriter& w = *out;
  // The echo reads through the slots the readers write through, so it
  // works on a copy. The protocol section is the effective parameter set.
  Spec s = spec;
  protocol::Params params;
  apply_overrides(s, &params);
  const Scope scope{&s, nullptr, &s.operators, &params};
  const auto open_section = [&](Section section) {
    w.key(section_name(section)).begin_object();
    write_fields(section, scope, exact, w);
  };
  w.begin_object();
  w.key("name").value(s.name);
  write_fields(Section::kTop, scope, exact, w);
  for (Section section : {Section::kDeployment, Section::kDamage, Section::kProtocol,
                          Section::kDynamics, Section::kNetwork, Section::kFaults}) {
    open_section(section);
    w.end_object();
  }
  open_section(Section::kOperators);
  w.key("policies");
  write_operator_rules(s.operators.policies, w);
  w.end_object();
  open_section(Section::kObservability);
  w.key("kinds").begin_array();
  for (const KindGroup& group : kKindGroups) {
    if ((s.obs_trace.kind_mask & group.mask) == group.mask) {
      w.value(group.name);
    }
  }
  w.end_array();
  w.end_object();
  w.key(section_name(Section::kPhase)).begin_array();
  for (adversary::AdversaryPhase& phase : s.pipeline) {
    w.begin_object();
    w.key("kind").value(adversary::phase_kind_name(phase.kind));
    write_fields(Section::kPhase, Scope{.phase = &phase}, exact, w);
    w.key("defection").value(adversary::defection_point_name(phase.defection));
    w.end_object();
  }
  w.end_array();
  open_section(Section::kAdversaryPolicy);
  w.key("policies");
  write_adversary_rules(s.adversary_policy.policies, w);
  w.end_object();
  w.key("tournament").begin_object();
  w.key("payoff").value(s.payoff_name);
  w.key("adversary_strategies").begin_array();
  for (const Spec::AdversaryStrategy& strategy : s.adversary_strategies) {
    w.begin_object();
    w.key("name").value(strategy.name);
    w.key("policies");
    write_adversary_rules(strategy.policies, w);
    w.end_object();
  }
  w.end_array();
  w.key("operator_strategies").begin_array();
  for (Spec::OperatorStrategy& strategy : s.operator_strategies) {
    w.begin_object();
    w.key("name").value(strategy.name);
    write_fields(Section::kOperators, Scope{.operators = &strategy.operators}, exact, w);
    w.key("policies");
    write_operator_rules(strategy.operators.policies, w);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  // Every axis in grid order, a tournament's two strategy axes included.
  w.key("sweep").begin_array();
  for (const SweepAxis& axis : s.axes) {
    w.begin_object();
    w.key("param").value(axis.param);
    w.key("phase").value(static_cast<uint64_t>(axis.phase));
    w.key("label").value(axis.label);
    w.key("values").begin_array();
    for (size_t i = 0; i < axis.size(); ++i) {
      if (axis.categorical()) {
        w.value(axis.names[i]);
      } else {
        w.value(axis.values[i]);
      }
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

bool parse_spec(const Json& json, const std::string& source_path, Spec* out,
                std::string* error) {
  *out = Spec{};
  out->source_path = source_path;
  ObjectReader reader(json, source_path, "", error);
  if (!reader.expect_object()) {
    return false;
  }
  if (!reader.string("name", &out->name) || !reader.string("description", &out->description)) {
    return false;
  }
  if (out->name.empty()) {
    return reader.fail(json.line, "name", "required");
  }
  if (out->name.find('/') != std::string::npos || out->name.find(' ') != std::string::npos) {
    return reader.fail(json.find("name")->line, "name",
                       "must not contain '/' or spaces (used in output file names)");
  }
  const Scope scope{out, nullptr, &out->operators, nullptr};
  if (!reader.fields(Section::kTop, scope)) {
    return false;
  }

  // One optional section: its table rows, then `rest` (hand-written members
  // and cross-field rules), then the unknown-member check. Sections are read
  // in dependency order (deployment before tracing, network before faults).
  const auto read_section = [&](Section which, auto&& rest) {
    const Json* section = reader.member(section_name(which));
    if (section == nullptr) {
      return true;
    }
    ObjectReader r(*section, source_path, section_name(which), error);
    return r.expect_object() && r.fields(which, scope) && rest(r, *section) && r.finish();
  };
  const auto no_rules = [](ObjectReader&, const Json&) { return true; };
  const sim::SimTime zero = sim::SimTime::zero();
  if (!read_section(Section::kDeployment, no_rules) ||
      !read_section(Section::kDamage, no_rules)) {
    return false;
  }
  if (!read_section(Section::kDynamics, [&](ObjectReader& r, const Json& section) {
        return out->churn.regional_outage_rate_per_year <= 0.0 || out->churn.regions > 0 ||
               r.fail(section.line, "regions",
                      "required (>= 1) when regional_outage_rate_per_year is set");
      })) {
    return false;
  }
  if (!read_section(Section::kOperators, [&](ObjectReader& r, const Json& section) {
        const Json* policies = r.member("policies");
        if (policies == nullptr || !policies->is_array() || policies->array_items.empty()) {
          return r.fail(policies != nullptr ? policies->line : section.line, "policies",
                        "required non-empty array of { trigger, action } objects");
        }
        for (size_t i = 0; i < policies->array_items.size(); ++i) {
          dynamics::OperatorPolicy policy;
          if (!parse_operator_policy_entry(policies->array_items[i], source_path,
                                           "operators.policies[" + std::to_string(i) + "]",
                                           &policy, error)) {
            return false;
          }
          out->operators.policies.push_back(policy);
        }
        return true;
      })) {
    return false;
  }
  if (!read_section(Section::kNetwork, [&](ObjectReader& r, const Json& section) {
        return out->network.max_latency >= out->network.min_latency ||
               r.fail(section.line, "max_latency_ms", "must be >= min_latency_ms");
      })) {
    return false;
  }
  if (!read_section(Section::kFaults, [&](ObjectReader& r, const Json& section) {
        out->faults_section = true;
        // Jitter rides on top of the propagation latency; with a zero
        // minimum there is no delay floor for the sharded lookahead
        // contract to stand on (docs/faults.md).
        return out->faults.jitter <= zero || out->network.min_latency > zero ||
               r.fail(section.line, "jitter_ms",
                      "jitter needs network.min_latency_ms > 0 (zero-latency networks have no "
                      "delay floor for delivery jitter to ride on)");
      })) {
    return false;
  }
  // observability: protocol event tracing + self-profiling
  // (docs/observability.md)
  if (!read_section(Section::kObservability, [&](ObjectReader& r, const Json& section) {
        if (const Json* kinds = r.member("kinds")) {
          if (!kinds->is_array()) {
            return r.fail(kinds->line, "kinds",
                          "expected an array of event-group names "
                          "(poll | voter | churn | operator | fault | adversary)");
          }
          out->obs_trace.kind_mask = 0;
          for (const Json& item : kinds->array_items) {
            if (!item.is_string()) {
              return r.fail(item.line, "kinds", "expected strings");
            }
            const KindGroup* group =
                std::find_if(std::begin(kKindGroups), std::end(kKindGroups),
                             [&](const KindGroup& g) { return item.string_value == g.name; });
            if (group == std::end(kKindGroups)) {
              return r.fail(item.line, "kinds",
                            "unknown event group '" + item.string_value +
                                "' (expected poll | voter | churn | operator | fault | "
                                "adversary)");
            }
            out->obs_trace.kind_mask |= group->mask;
          }
        }
        // Trace artifacts are one-file-per-unit snapshots of a single run; a
        // seed-replicated or layered unit aggregates several runs and has no
        // single trace to write.
        if (out->obs_trace.enabled && out->seeds > 1) {
          return r.fail(section.line, "trace",
                        "tracing requires deployment.seeds == 1 (one trace file per unit)");
        }
        return !out->obs_trace.enabled || out->layers == 0 ||
               r.fail(section.line, "trace",
                      "tracing is not supported with deployment.layers (layered units "
                      "aggregate several runs)");
      })) {
    return false;
  }

  // protocol overrides, by name in file order
  if (const Json* protocol = reader.member("protocol")) {
    ObjectReader p(*protocol, source_path, "protocol", error);
    if (!p.expect_object()) {
      return false;
    }
    for (const auto& [name, value] : protocol->object_members) {
      const Field* f = find_field(Section::kProtocol, name);
      if (f == nullptr) {
        std::string known;
        for (const std::string& k : protocol_params()) {
          known += (known.empty() ? "" : ", ") + k;
        }
        return p.fail(value.line, name, "unknown protocol parameter (known: " + known + ")");
      }
      if (!value.is_bool() && !value.is_number()) {
        return p.fail(value.line, name, "expected a number or bool");
      }
      const double v = value.is_bool() ? (value.bool_value ? 1.0 : 0.0) : value.number_value;
      if (!p.check_value(*f, v, value.line)) {
        return false;
      }
      out->protocol_overrides.emplace_back(name, v);
    }
  }

  // adversary pipeline
  if (const Json* adversary_json = reader.member("adversary")) {
    if (!adversary_json->is_array()) {
      return reader.fail(adversary_json->line, "adversary",
                         "expected an array of phase objects");
    }
    for (size_t i = 0; i < adversary_json->array_items.size(); ++i) {
      adversary::AdversaryPhase phase;
      if (!parse_phase(adversary_json->array_items[i], source_path, i, &phase, error)) {
        return false;
      }
      out->pipeline.push_back(phase);
    }
    const std::string pipeline_error =
        adversary::validate_pipeline(out->pipeline, out->peers + out->newcomers);
    if (!pipeline_error.empty()) {
      return reader.fail(adversary_json->line, "adversary", pipeline_error);
    }
  }

  // adaptive adversary policies (docs/adversaries.md). The non-empty-table
  // and pipeline-shape checks run after the tournament section below: a
  // tournament spec may use this section for knobs only.
  const Json* adversary_policy_json = json.find("adversary_policy");
  if (!read_section(Section::kAdversaryPolicy, [&](ObjectReader& r, const Json&) {
        const Json* policies = r.member("policies");
        if (policies != nullptr && !policies->is_array()) {
          return r.fail(policies->line, "policies",
                        "expected an array of { trigger, action } objects");
        }
        for (size_t i = 0; policies != nullptr && i < policies->array_items.size(); ++i) {
          adversary::AdversaryPolicy rule;
          if (!parse_adversary_policy_rule(policies->array_items[i], source_path,
                                           "adversary_policy.policies[" + std::to_string(i) + "]",
                                           &rule, error)) {
            return false;
          }
          out->adversary_policy.policies.push_back(rule);
        }
        return true;
      })) {
    return false;
  }

  // sweep axes
  if (const Json* sweep = reader.member("sweep")) {
    if (!sweep->is_array()) {
      return reader.fail(sweep->line, "sweep", "expected an array of axis objects");
    }
    for (size_t i = 0; i < sweep->array_items.size(); ++i) {
      SweepAxis axis;
      if (!parse_axis(sweep->array_items[i], source_path, i, out->pipeline, &axis, error)) {
        return false;
      }
      out->axes.push_back(std::move(axis));
    }
    // Dynamics axes only mean something with their section in place: a
    // detection-latency sweep with no operator policies (or a regional
    // outage-rate sweep with no regions) would silently run the same
    // scenario in every cell.
    for (size_t i = 0; i < out->axes.size(); ++i) {
      const SweepAxis& axis = out->axes[i];
      const auto axis_fail = [&](const std::string& reason) {
        *error = source_path + ":" + std::to_string(axis.line) + ": sweep[" +
                 std::to_string(i) + "].param: " + reason;
        return false;
      };
      const Field* field = find_axis(axis.param);
      if (field != nullptr && field->section == Section::kFaults && !out->faults_section) {
        return axis_fail("'" + axis.param +
                         "' sweeps need a network_faults section (even an all-zero one) so "
                         "the campaign states its fault model explicitly");
      }
      if (axis.param == "jitter_ms" && out->network.min_latency <= sim::SimTime::zero()) {
        return axis_fail(
            "'jitter_ms' sweeps need network.min_latency_ms > 0 (zero-latency networks have "
            "no delay floor for delivery jitter to ride on)");
      }
      if (axis.param == "detection_latency_days" && out->operators.policies.empty()) {
        return axis_fail(
            "'detection_latency_days' sweeps need an operators section with at least one "
            "policy");
      }
      if (axis.param == "regional_outage_rate" && out->churn.regions == 0) {
        return axis_fail("'regional_outage_rate' sweeps need dynamics.regions >= 1");
      }
      if (axis.param == "churn_mean_downtime_days" && !out->churn.session_churn()) {
        // Downtime is inert without session churn; allow the sweep only if
        // a sibling axis switches churn on per cell.
        bool churn_swept = false;
        for (const SweepAxis& other : out->axes) {
          churn_swept = churn_swept || other.param == "churn_leave_rate" ||
                        other.param == "churn_crash_rate";
        }
        if (!churn_swept) {
          return axis_fail(
              "'churn_mean_downtime_days' sweeps need session churn: set "
              "dynamics.leave_rate_per_peer_year / crash_rate_per_peer_year or sweep them");
        }
      }
    }
  }

  // tournament (docs/adversaries.md): adversary strategies × operator
  // strategies as two categorical axes appended to the sweep grid.
  if (const Json* tournament = reader.member("tournament")) {
    ObjectReader t(*tournament, source_path, "tournament", error);
    if (!t.expect_object()) {
      return false;
    }
    out->tournament = true;
    if (!out->axes.empty()) {
      return t.fail(tournament->line, "tournament",
                    "tournament campaigns cross their strategy axes exclusively; remove the "
                    "sweep section");
    }
    if (!t.string("payoff", &out->payoff_name)) {
      return false;
    }
    const Json* adv = t.member("adversary_strategies");
    if (adv == nullptr || !adv->is_array() || adv->array_items.empty()) {
      return t.fail(adv != nullptr ? adv->line : tournament->line, "adversary_strategies",
                    "required non-empty array of { name, policies } objects");
    }
    const Json* ops = t.member("operator_strategies");
    if (ops == nullptr || !ops->is_array() || ops->array_items.empty()) {
      return t.fail(ops != nullptr ? ops->line : tournament->line, "operator_strategies",
                    "required non-empty array of { name, policies } objects");
    }
    for (size_t i = 0; i < adv->array_items.size(); ++i) {
      const Json& entry = adv->array_items[i];
      const std::string prefix = "tournament.adversary_strategies[" + std::to_string(i) + "]";
      ObjectReader s(entry, source_path, prefix, error);
      Spec::AdversaryStrategy strategy;
      strategy.line = entry.line;
      if (!s.expect_object() || !s.string("name", &strategy.name)) {
        return false;
      }
      const std::string name_error = check_strategy_name(strategy.name);
      if (!name_error.empty()) {
        const Json* m = entry.find("name");
        return s.fail(m != nullptr ? m->line : entry.line, "name", name_error);
      }
      if (const Json* policies = s.member("policies")) {
        if (!policies->is_array()) {
          return s.fail(policies->line, "policies",
                        "expected an array of { trigger, action } objects (empty = the "
                        "static, non-adaptive adversary)");
        }
        for (size_t j = 0; j < policies->array_items.size(); ++j) {
          adversary::AdversaryPolicy rule;
          if (!parse_adversary_policy_rule(policies->array_items[j], source_path,
                                           prefix + ".policies[" + std::to_string(j) + "]",
                                           &rule, error)) {
            return false;
          }
          strategy.policies.push_back(rule);
        }
      }
      if (!s.finish()) {
        return false;
      }
      if (!strategy.policies.empty()) {
        // Shape-check against the pipeline with the section knobs the cell
        // will actually run under.
        adversary::AdversaryPolicyConfig probe = out->adversary_policy;
        probe.policies = strategy.policies;
        const std::string policy_error =
            adversary::validate_policies(probe, out->pipeline.size());
        if (!policy_error.empty()) {
          return t.fail(entry.line, "adversary_strategies[" + std::to_string(i) + "]",
                        policy_error);
        }
      }
      for (const Spec::AdversaryStrategy& prior : out->adversary_strategies) {
        if (prior.name == strategy.name) {
          return t.fail(entry.line, "adversary_strategies[" + std::to_string(i) + "].name",
                        "duplicate strategy name '" + strategy.name + "'");
        }
      }
      out->adversary_strategies.push_back(std::move(strategy));
    }
    for (size_t i = 0; i < ops->array_items.size(); ++i) {
      const Json& entry = ops->array_items[i];
      const std::string prefix = "tournament.operator_strategies[" + std::to_string(i) + "]";
      ObjectReader s(entry, source_path, prefix, error);
      Spec::OperatorStrategy strategy;
      strategy.line = entry.line;
      if (!s.expect_object() || !s.string("name", &strategy.name) ||
          !s.fields(Section::kOperators, Scope{.operators = &strategy.operators})) {
        return false;
      }
      const std::string name_error = check_strategy_name(strategy.name);
      if (!name_error.empty()) {
        const Json* m = entry.find("name");
        return s.fail(m != nullptr ? m->line : entry.line, "name", name_error);
      }
      if (const Json* policies = s.member("policies")) {
        if (!policies->is_array()) {
          return s.fail(policies->line, "policies",
                        "expected an array of { trigger, action } objects (empty = "
                        "hands-off operators)");
        }
        for (size_t j = 0; j < policies->array_items.size(); ++j) {
          dynamics::OperatorPolicy policy;
          if (!parse_operator_policy_entry(policies->array_items[j], source_path,
                                           prefix + ".policies[" + std::to_string(j) + "]",
                                           &policy, error)) {
            return false;
          }
          strategy.operators.policies.push_back(policy);
        }
      }
      if (!s.finish()) {
        return false;
      }
      for (const Spec::OperatorStrategy& prior : out->operator_strategies) {
        if (prior.name == strategy.name) {
          return t.fail(entry.line, "operator_strategies[" + std::to_string(i) + "].name",
                        "duplicate strategy name '" + strategy.name + "'");
        }
      }
      out->operator_strategies.push_back(std::move(strategy));
    }
    if (!t.finish()) {
      return false;
    }
    // The two strategy axes, adversary outermost — the payoff matrix's
    // row-major order. Categorical names are self-describing (no label
    // prefix), matching the defection axis convention.
    SweepAxis adversary_axis;
    adversary_axis.param = "adversary_strategy";
    adversary_axis.line = tournament->line;
    for (const Spec::AdversaryStrategy& strategy : out->adversary_strategies) {
      adversary_axis.names.push_back(strategy.name);
    }
    SweepAxis operator_axis;
    operator_axis.param = "operator_strategy";
    operator_axis.line = tournament->line;
    for (const Spec::OperatorStrategy& strategy : out->operator_strategies) {
      operator_axis.names.push_back(strategy.name);
    }
    out->axes.push_back(std::move(adversary_axis));
    out->axes.push_back(std::move(operator_axis));
  }
  if (out->payoff_name.empty()) {
    out->payoff_name = out->name + ".payoff.csv";
  }

  // Deferred adversary_policy cross-checks (they need the tournament and
  // pipeline context from above).
  if (adversary_policy_json != nullptr && out->adversary_policy.policies.empty() &&
      !out->tournament) {
    *error = source_path + ":" + std::to_string(adversary_policy_json->line) +
             ": adversary_policy.policies: required non-empty array of { trigger, action } "
             "objects (knob-only sections are only meaningful with a tournament)";
    return false;
  }
  if (!out->adversary_policy.policies.empty()) {
    const std::string policy_error =
        adversary::validate_policies(out->adversary_policy, out->pipeline.size());
    if (!policy_error.empty()) {
      *error = source_path + ":" + std::to_string(adversary_policy_json->line) +
               ": adversary_policy: " + policy_error;
      return false;
    }
  }

  // outputs
  out->manifest_name = out->name + ".manifest.json";
  out->cells_name = out->name + ".cells.csv";
  if (const Json* outputs = reader.member("outputs")) {
    ObjectReader o(*outputs, source_path, "outputs", error);
    if (!o.expect_object() || !o.string("manifest", &out->manifest_name) ||
        !o.string("cells", &out->cells_name)) {
      return false;
    }
    if (const Json* figure = o.member("figure")) {
      if (figure->is_array()) {
        if (figure->array_items.empty()) {
          return o.fail(figure->line, "figure",
                        "expected a figure object or a non-empty array of them");
        }
        for (size_t i = 0; i < figure->array_items.size(); ++i) {
          if (!parse_figure(figure->array_items[i], source_path,
                            "outputs.figure[" + std::to_string(i) + "]", out, error)) {
            return false;
          }
        }
      } else if (!parse_figure(*figure, source_path, "outputs.figure", out, error)) {
        return false;
      }
    }
    if (!o.finish()) {
      return false;
    }
  }

  return reader.finish();
}

bool load_spec_file(const std::string& path, Spec* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    *error = path + ": cannot open";
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  Json json;
  std::string json_error;
  if (!parse_json(buffer.str(), &json, &json_error)) {
    *error = path + ": " + json_error;
    return false;
  }
  return parse_spec(json, path, out, error);
}

bool compile_campaign(const Spec& spec, CompiledCampaign* out, std::string* error) {
  out->spec = spec;
  out->cells.clear();
  if (!lower(spec, &out->base, error)) {
    return false;
  }

  // Row-major cartesian expansion, first axis outermost — the same loop
  // nest order the hard-coded sweep drivers use.
  size_t cell_count = 1;
  for (const SweepAxis& axis : spec.axes) {
    if (axis.size() == 0) {
      *error = spec.source_path + ": sweep axis '" + axis.param + "' has no values";
      return false;
    }
    // parse_spec vets axes, but a hand-built Spec may not have gone
    // through it.
    const Field* field = axis.categorical() ? nullptr : find_axis(axis.param);
    bool valid = axis.categorical() ||
                 (field != nullptr &&
                  (field->section != Section::kPhase || axis.phase < spec.pipeline.size()));
    for (size_t i = 0; valid && field != nullptr && i < axis.values.size(); ++i) {
      valid = value_error(*field, axis.values[i]).empty();
    }
    if (!valid) {
      *error = spec.source_path + ": sweep axis '" + axis.param +
               "' is not sweepable here or has an out-of-range value";
      return false;
    }
    if (cell_count > 100000 / axis.size()) {
      *error = spec.source_path + ": sweep grid exceeds 100000 cells";
      return false;
    }
    cell_count *= axis.size();
  }
  std::vector<size_t> indices(spec.axes.size(), 0);
  for (size_t cell = 0; cell < cell_count; ++cell) {
    // Each cell is the spec with its axis coordinates set, lowered the way
    // the baseline is.
    Spec cell_spec = spec;
    CompiledCell compiled;
    std::string label;
    for (size_t a = 0; a < spec.axes.size(); ++a) {
      const SweepAxis& axis = spec.axes[a];
      set_axis_value(spec, axis, indices[a], &cell_spec);
      compiled.values.push_back(axis.categorical() ? static_cast<double>(indices[a])
                                                   : axis.values[indices[a]]);
      compiled.names.push_back(format_axis_value(axis, indices[a]));
      label += (label.empty() ? "" : "_") + axis.label + compiled.names.back();
    }
    compiled.label = label.empty() ? "cell" : label;
    if (!lower(cell_spec, &compiled.config, error)) {
      return false;
    }
    compiled.config.adversary = cell_spec.pipeline;
    // Re-validate: an axis can move a phase window or pool into an invalid
    // shape that the static pipeline validation could not see.
    const std::string pipeline_error = adversary::validate_pipeline(
        compiled.config.adversary, compiled.config.peer_count + compiled.config.newcomer_count);
    if (!pipeline_error.empty()) {
      *error = spec.source_path + ": cell " + compiled.label + ": " + pipeline_error;
      return false;
    }
    if (compiled.config.adversary_policy.enabled()) {
      const std::string policy_error = adversary::validate_policies(
          compiled.config.adversary_policy, compiled.config.adversary.size());
      if (!policy_error.empty()) {
        *error = spec.source_path + ": cell " + compiled.label + ": " + policy_error;
        return false;
      }
    }
    out->cells.push_back(std::move(compiled));
    for (size_t a = spec.axes.size(); a-- > 0;) {
      if (++indices[a] < spec.axes[a].size()) {
        break;
      }
      indices[a] = 0;
    }
  }
  return true;
}

}  // namespace lockss::campaign
