// Whole-deployment scenario construction and execution.
//
// A ScenarioConfig describes one simulated deployment (§6.3): a population
// of loyal peers preserving a collection of AUs for a simulated span, plus
// an adversary pipeline. run_scenario() builds everything, runs the
// discrete-event simulation, and returns the §6.1 metrics together with raw
// counters.
//
// The 600-AU collections of §6.3 are simulated with the paper's *layering*
// methodology: "We simulate 600 AU collections by layering 50 AUs/peer runs,
// adding the tasks caused by this layer's 50 AUs to the task schedule for
// each peer accumulated during the preceding layers." run_layered() exports
// every peer's busy intervals after each layer and injects them as
// background load into the next.
#ifndef LOCKSS_EXPERIMENT_SCENARIO_HPP_
#define LOCKSS_EXPERIMENT_SCENARIO_HPP_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "adversary/pipeline.hpp"
#include "adversary/policy.hpp"
#include "crypto/cost_model.hpp"
#include "dynamics/spec.hpp"
#include "metrics/collector.hpp"
#include "metrics/trace.hpp"
#include "net/fault_model.hpp"
#include "net/network.hpp"
#include "obs/event_log.hpp"
#include "obs/profile.hpp"
#include "protocol/host.hpp"
#include "protocol/params.hpp"
#include "sched/task_schedule.hpp"
#include "storage/damage.hpp"

namespace lockss::experiment {

struct ScenarioConfig {
  uint32_t peer_count = 100;   // §6.3: "a constant loyal peer population of 100"
  uint32_t au_count = 50;      // one layer's collection
  // Fraction of the AU collection each peer holds (extension; §6.3 notes the
  // paper does "not yet simulate the diversity of local collections"). At
  // 1.0 every peer holds every AU, the paper's setting. Below 1.0 each peer
  // joins each AU independently with this probability; reference lists and
  // reputation seeds are then drawn from the AU's actual holders, and the
  // metrics denominators count actual replicas.
  double au_coverage = 1.0;
  // Extension (§9): a dynamic population. `newcomer_count` additional peers
  // (node ids peer_count .. peer_count+newcomer_count-1) join the running
  // system at uniform-random times within [0, newcomer_join_window]. Each
  // bootstraps the way a freshly installed peer does: it holds correct
  // publisher replicas and knows a sample of established holders, but nobody
  // knows it — its first solicitations run through the unknown-peer
  // admission channel and the discovery/introduction machinery.
  uint32_t newcomer_count = 0;
  sim::SimTime newcomer_join_window = sim::SimTime::years(1);
  sim::SimTime duration = sim::SimTime::years(2);  // §6.3: two simulated years
  uint64_t seed = 1;
  protocol::Params params;
  crypto::CostModel costs;
  storage::DamageConfig damage;
  bool enable_damage = true;
  // The adversary (adversary/pipeline.hpp): ordered, windowed attack
  // phases installed through one AdversaryFleet. Empty = an undisturbed
  // deployment. The §9 combined strategy is two phases, pipe stoppage then
  // brute force; the order is part of the RNG stream (one root split per
  // phase, in phase order).
  adversary::AdversaryPipeline adversary;
  // Adaptive adversary policies (adversary/policy.hpp; docs/adversaries.md):
  // deterministic trigger→action rules driving the installed pipeline. The
  // engine's RNG is a domain-separated hash of `seed` — never a root split —
  // and nothing is constructed when the table is empty (or the pipeline is),
  // so policy-free configs reproduce the golden corpus bit for bit.
  adversary::AdversaryPolicyConfig adversary_policy;
  // Deployment dynamics (extension; see docs/dynamics.md): session churn,
  // correlated regional outages, and Poisson peer arrivals over the
  // established population, plus detection-latency-delayed operator
  // interventions. Each enabled subsystem consumes exactly one root-RNG
  // split (taken before any other stream), so disabled configs reproduce
  // the static deployment bit for bit — the golden corpus pins this.
  dynamics::ChurnConfig churn;
  dynamics::OperatorResponseConfig operators;
  // Network topology parameters (§6.2 latency band + bandwidth choices).
  // The minimum latency doubles as the sharded engine's lookahead; configs
  // with a zero minimum run serial (sharding_supported()).
  net::NetworkConfig network;
  // Unreliable-link fault layer (net::FaultModel; docs/faults.md): loss,
  // duplication, jitter, burst outages on the delivery path. The model's
  // RNG is a domain-separated hash of `seed` — never a root split — so
  // enabling (or inertly installing) it shifts no other stream, and the
  // default disabled config reproduces the ideal network bit for bit.
  net::FaultConfig faults;
  // Layering support: per-peer busy intervals injected before the run, and
  // whether to retain full schedule history for export.
  const std::vector<std::vector<sched::Reservation>>* background = nullptr;
  bool collect_schedule_history = false;
  // Optional per-poll observer (diagnostics / examples).
  std::function<void(net::NodeId, const protocol::PollOutcome&)> poll_observer;
  // Metric time-series sampling cadence (metrics::TraceRecorder); zero
  // disables tracing. Samples are scheduled as ordinary simulator events,
  // so traces obey the same bit-identical determinism contract as the
  // scalar report.
  sim::SimTime trace_interval = sim::SimTime::zero();
  // Deterministic intra-run sharding (docs/sharding.md): split this run's
  // peers and event load across `shards` worker threads. 0 picks the
  // process default (default_shards(), normally 1); 1 runs the unsharded
  // serial path. Every shard count produces the same RunResult bit for bit
  // — peak_queue_depth excepted, which becomes a sum of per-queue peaks —
  // so this is an execution knob, not part of the experiment definition
  // (campaign specs and manifests never record it).
  uint32_t shards = 0;
  // Protocol event tracing (docs/observability.md). Disabled (the default)
  // every hook is a cached null check and the run is byte-for-byte the
  // untraced behavior — the golden corpus pins this. Enabled, the trace in
  // RunResult::obs_events is itself bit-identical across shard and worker
  // counts. Tracing consumes no RNG (sampling is a pure hash), so it never
  // perturbs the simulation either way.
  obs::TraceConfig obs_trace;
  // Wall-clock self-profiling (setup/run/harvest timers, engine barrier
  // histograms, peak RSS) into RunResult::profile. Non-deterministic by
  // nature; reporting only.
  bool obs_profile = false;
};

struct RunResult {
  metrics::MetricsReport report;
  // Fixed-interval §6.1 time series (empty unless config.trace_interval set).
  metrics::RunTrace trace;
  uint64_t polls_started = 0;
  uint64_t solicitations_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_filtered = 0;
  uint64_t adversary_invitations = 0;
  uint64_t adversary_admissions = 0;
  // Population-wide admission-verdict histogram (protocol::AdmissionVerdict).
  std::array<uint64_t, 8> admission_verdicts{};
  // Simulation-engine counters (deterministic; tracked for the perf reports).
  uint64_t events_processed = 0;
  uint64_t peak_queue_depth = 0;
  // Deployment-dynamics accounting (defaults for static deployments, so
  // every existing fixture and comparator is unaffected).
  uint64_t churn_departures = 0;
  uint64_t churn_recoveries = 0;
  uint64_t churn_arrivals = 0;
  // Time-weighted mean online fraction of the established population.
  double availability_mean = 1.0;
  // Mean completed downtime, in days (0 when nothing ever recovered).
  double mean_recovery_days = 0.0;
  // Operator interventions applied, indexed by dynamics::OperatorAction.
  std::array<uint64_t, dynamics::kOperatorActionCount> operator_interventions{};
  // Adaptive-adversary policy accounting (all zero without a policy table):
  // rule firings seen, and reactions applied indexed by
  // adversary::PolicyAction.
  uint64_t policy_triggers = 0;
  std::array<uint64_t, adversary::kPolicyActionCount> policy_actions{};
  // Fault-layer accounting (net::FaultModel; all zero on ideal networks).
  uint64_t faults_lost = 0;
  uint64_t faults_burst_dropped = 0;
  uint64_t faults_duplicated = 0;
  uint64_t faults_jittered = 0;
  // Protocol robustness counters, summed over every concluded poll.
  uint64_t ack_timeouts = 0;
  uint64_t vote_timeouts = 0;
  uint64_t solicitation_retries = 0;
  // Poll conclusions by abort reason (protocol::PollAbortReason; slot
  // kNone counts full successes).
  std::array<uint64_t, protocol::kPollAbortReasonCount> polls_aborted{};
  // Session-liveness audit, computed at harvest (docs/faults.md). Sessions
  // still live at end-of-run are legitimate when young; a live session
  // older than twice the inter-poll interval, or a schedule reservation
  // ending past that horizon, is a leak — both counts must stay zero under
  // arbitrary loss (tests/fault_soak_test.cpp).
  uint64_t sessions_live_at_end = 0;
  uint64_t stale_sessions_at_end = 0;
  uint64_t reservations_beyond_horizon = 0;
  // Per-peer busy history (only when collect_schedule_history).
  std::vector<std::vector<sched::Reservation>> schedules;
  // Canonically ordered protocol event trace (empty unless
  // config.obs_trace.enabled; docs/observability.md). Deterministic, but
  // deliberately excluded from the campaign journal and golden comparisons —
  // trace artifacts are serialized separately.
  obs::EventTrace obs_events;
  // Wall-clock profile (zeroed unless config.obs_profile). Never
  // deterministic; never journaled or compared.
  obs::RunProfile profile;
};

// Shard count used when ScenarioConfig::shards is 0: the process-wide
// override if set, else the LOCKSS_SHARDS environment variable (>= 1),
// else 1 (serial).
uint32_t default_shards();
// Process-wide override (CLI tools, benches); 0 restores automatic
// selection.
void set_default_shards(uint32_t shards);

// True when the sharded engine can run `config` bit-identically to the
// serial path; when false (an external poll_observer, or operator latency
// inside the network lookahead) run_scenario silently runs serial.
bool sharding_supported(const ScenarioConfig& config);

// Builds and runs one scenario to completion.
RunResult run_scenario(const ScenarioConfig& config);

// Runs `layers` scenarios, threading accumulated schedule load through, and
// returns the per-layer results (combine with combine_results()).
std::vector<RunResult> run_layered(const ScenarioConfig& config, uint32_t layers);

}  // namespace lockss::experiment

#endif  // LOCKSS_EXPERIMENT_SCENARIO_HPP_
