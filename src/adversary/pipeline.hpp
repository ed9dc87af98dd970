// Composable multi-adversary pipelines (§9 "combined adversary strategies").
//
// The paper evaluates one adversary at a time and closes by asking how
// *combinations* fare. A pipeline is an ordered list of AdversaryPhase
// entries — each naming one of the attack modules, its cadence, its
// defection point, an optional activation window [start, stop), and an
// optional private minion-identity pool — installed together into one
// scenario. Phases with overlapping windows run concurrently (e.g. rolling
// pipe stoppage + vote flood); disjoint windows sequence attacks (e.g. an
// admission flood timed into the brute-force recuperation).
//
// Determinism contract: the fleet consumes exactly one root-RNG split per
// phase, in phase order, and schedules no events for phases whose window is
// the whole run (start == stop == 0, the legacy shape). A single-phase
// pipeline is therefore bit-identical to the hard-coded single-adversary
// construction it replaced. A pipeline is the one way to describe an
// adversary (experiment::ScenarioConfig::adversary). The golden corpus pins
// single-phase pipelines byte for byte, and the campaign fixtures pin
// multi-phase ones (tests/golden/).
#ifndef LOCKSS_ADVERSARY_PIPELINE_HPP_
#define LOCKSS_ADVERSARY_PIPELINE_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adversary/admission_flood.hpp"
#include "adversary/attack_schedule.hpp"
#include "adversary/brute_force.hpp"
#include "adversary/grade_recovery.hpp"
#include "adversary/pipe_stoppage.hpp"
#include "adversary/vote_flood.hpp"
#include "net/node_slot_registry.hpp"

namespace lockss::adversary {

// One attack module, as installable into a pipeline phase.
enum class PhaseKind : uint8_t {
  kPipeStoppage,    // §7.2 network-level blackout (effortless)
  kAdmissionFlood,  // §7.3 garbage invitations (effortless)
  kBruteForce,      // §7.4 effortful poll invitations from in-debt minions
  kGradeRecovery,   // §7.4 closing variant (sleeper minions)
  kVoteFlood,       // §5.1 unsolicited-vote spray
};

const char* phase_kind_name(PhaseKind kind);
// Case-sensitive inverse of phase_kind_name ("pipe_stoppage", ...);
// returns false on unknown names.
bool parse_phase_kind(const std::string& name, PhaseKind* out);

struct AdversaryPhase {
  PhaseKind kind = PhaseKind::kPipeStoppage;
  // On/off cadence; consumed by pipe stoppage and admission flood (the
  // other modules attack continuously while active).
  AttackCadence cadence = {};
  // Brute-force defection point (ignored by other kinds).
  DefectionPoint defection = DefectionPoint::kNone;
  // Activation window. start == 0 activates at scenario start without
  // scheduling an event (the legacy shape); stop == 0 runs to the end.
  sim::SimTime start = sim::SimTime::zero();
  sim::SimTime stop = sim::SimTime::zero();
  // Identity-pool overrides; 0 keeps the module's default. For the
  // admission flood (which spoofs unbounded fresh ids) minion_id_base
  // overrides the spoofed-id base and minion_count is ignored. Concurrent
  // phases must use disjoint pools; AdversaryFleet validates.
  uint32_t minion_count = 0;
  uint32_t minion_id_base = 0;
};

using AdversaryPipeline = std::vector<AdversaryPhase>;

// The fixed identity pool a phase registers, if any.
struct PhaseIdentityPool {
  uint32_t base = 0;
  uint32_t count = 0;
};
PhaseIdentityPool phase_identity_pool(const AdversaryPhase& phase);

// Everything a phase needs from the scenario under construction. Pointers
// are non-owning and must outlive the fleet.
struct FleetEnvironment {
  sim::Simulator* simulator = nullptr;
  net::Network* network = nullptr;
  // Deployment identity registry; may be null (hand-built hosts). Fixed
  // minion pools register here, sorted ascending across phases to satisfy
  // the registry's ordering contract.
  net::NodeSlotRegistry* registry = nullptr;
  // Ids below this belong to loyal peers/newcomers; minion pools must sit
  // above it (asserted at fleet construction via validate_pipeline).
  uint32_t reserved_low_ids = 0;
  std::vector<net::NodeId> loyal_ids;     // pipe-stoppage population
  std::vector<peer::Peer*> victims;       // attackable peers (loyal only)
  std::vector<storage::AuId> aus;
  const protocol::Params* params = nullptr;
  const crypto::CostModel* costs = nullptr;
};

// Validates a pipeline shape without building anything: disjoint fixed
// identity pools, pools above the loyal/newcomer id space, stop > start
// where a stop is given. Returns an empty string when valid, else a
// human-readable reason.
std::string validate_pipeline(const AdversaryPipeline& pipeline, uint32_t reserved_low_ids);

// Owns and drives every phase of one scenario's pipeline.
class AdversaryFleet {
 public:
  // Registers all fixed minion pools (ascending id order) and constructs
  // every phase's adversary, consuming one root.split() per phase in phase
  // order. Aborts (assert) on an invalid pipeline; run validate_pipeline
  // first for a recoverable diagnostic.
  AdversaryFleet(const FleetEnvironment& env, const AdversaryPipeline& pipeline, sim::Rng& root);

  // Starts phases with start == 0 synchronously (no event) and schedules
  // the rest; schedules stops where given.
  void start();

  // --- Policy-engine actions (adversary/policy.hpp) -------------------------
  // Deterministic activation toggles, called from PolicyEngine reactions on
  // the global context. All are idempotent against the per-phase active
  // flag, so a policy switch racing a scheduled window stop never
  // double-tears a phase down.
  void start_phase(size_t index);            // activate (no-op when active)
  void stop_phase(size_t index);             // deactivate (no-op when inactive)
  void restart_phase(size_t index);          // retarget: teardown + fresh start
  // Throttle to stay under detection: cadence-driven phases scale their
  // attack windows by `factor` (and stretch recuperation by 1/factor);
  // continuous phases duty-cycle — stop now, resume after `pause`.
  void throttle_phase(size_t index, double factor, sim::SimTime pause);
  bool phase_active(size_t index) const { return installed_[index].active; }

  // Aggregates for the RunResult / trace sampler. Sums across phases; for
  // every single-adversary pipeline the sums equal the legacy per-kind
  // counters (at most one phase carries each counter).
  double effort_seconds() const;
  uint64_t invitations() const;
  uint64_t admissions() const;

  size_t phase_count() const { return installed_.size(); }

 private:
  struct Installed {
    AdversaryPhase phase;
    bool active = false;  // flipped by start()/stop(); read by the policy APIs
    std::unique_ptr<PipeStoppageAdversary> pipe_stoppage;
    std::unique_ptr<AdmissionFloodAdversary> admission_flood;
    std::unique_ptr<BruteForceAdversary> brute_force;
    std::unique_ptr<GradeRecoveryAdversary> grade_recovery;
    std::unique_ptr<VoteFloodAdversary> vote_flood;

    void start();
    void stop();
  };

  sim::Simulator* simulator_;
  std::vector<Installed> installed_;
};

}  // namespace lockss::adversary

#endif  // LOCKSS_ADVERSARY_PIPELINE_HPP_
