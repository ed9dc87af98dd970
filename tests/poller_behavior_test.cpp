// Poller-side protocol behaviour observed through small real deployments:
// frivolous repairs, alarms, reference-list maintenance, and the fixed-rate
// invariant of §5.1 ("peers set their rate limits autonomously, not varying
// them in response to other peers' actions").
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "experiment/scenario.hpp"

namespace lockss::experiment {
namespace {

ScenarioConfig tiny_config() {
  ScenarioConfig config;
  config.peer_count = 24;
  config.au_count = 2;
  config.duration = sim::SimTime::years(1);
  config.seed = 31;
  config.enable_damage = false;
  return config;
}

TEST(PollerBehaviorTest, FrivolousRepairsExerciseVotersEvenWithoutDamage) {
  // §4.3: "the poller may also decide to obtain a repair from a random
  // voter, even if one is not required."
  ScenarioConfig config = tiny_config();
  config.duration = sim::SimTime::months(8);
  config.params.frivolous_repair_probability = 1.0;  // every poll probes
  uint64_t successful = 0;
  uint64_t with_repairs = 0;
  config.poll_observer = [&](net::NodeId, const protocol::PollOutcome& o) {
    if (o.kind == protocol::PollOutcomeKind::kSuccess) {
      ++successful;
      if (o.repairs > 0) {
        ++with_repairs;
      }
    }
  };
  const RunResult result = run_scenario(config);
  EXPECT_GT(successful, 20u);
  // Every successful poll issued its frivolous repair request.
  EXPECT_EQ(with_repairs, successful);
  // No replica was actually damaged; the content never changed.
  EXPECT_EQ(result.report.access_failure_probability, 0.0);
}

TEST(PollerBehaviorTest, NoFrivolousRepairsWhenDisabled) {
  ScenarioConfig config = tiny_config();
  config.duration = sim::SimTime::months(8);
  config.params.frivolous_repair_probability = 0.0;
  const RunResult result = run_scenario(config);
  EXPECT_EQ(result.report.repairs, 0u);
}

TEST(PollerBehaviorTest, FixedPollRateRegardlessOfAdversity) {
  // Rate limitation (§5.1): polls are called at a fixed autonomous rate —
  // under total pipe stoppage the number of *started* polls matches the
  // no-attack run exactly.
  ScenarioConfig config = tiny_config();
  const RunResult calm = run_scenario(config);
  config.adversary = {{.kind = adversary::PhaseKind::kPipeStoppage,
                       .cadence = {.attack_duration = sim::SimTime::days(360),
                                   .coverage = 1.0}}};
  const RunResult attacked = run_scenario(config);
  EXPECT_EQ(calm.polls_started, attacked.polls_started);
}

TEST(PollerBehaviorTest, ReferenceListsStayNearTarget) {
  // §4.3 removals are balanced by discovery + top-up; lists neither drain
  // below the quorum nor balloon.
  ScenarioConfig config = tiny_config();
  uint64_t too_small = 0;
  config.poll_observer = [&](net::NodeId, const protocol::PollOutcome& o) {
    if (o.kind == protocol::PollOutcomeKind::kSuccess &&
        o.inner_votes < 10) {  // quorum with the default params
      ++too_small;
    }
  };
  const RunResult result = run_scenario(config);
  EXPECT_GT(result.report.successful_polls, 100u);
  EXPECT_EQ(result.report.inquorate_polls, 0u);
}

TEST(PollerBehaviorTest, WidespreadIdenticalDisagreementRaisesAlarms) {
  // §4.3: no landslide either way -> inconclusive -> operator alarm. We
  // damage ~half the replicas of one AU before the run; pollers then find
  // the population split and must alarm rather than repair.
  ScenarioConfig config = tiny_config();
  config.duration = sim::SimTime::months(5);
  // Damage at a very high rate briefly: instead, corrupt via the damage
  // process with an extreme rate on half the peers is not expressible via
  // ScenarioConfig; use the damage process across all peers with a rate so
  // high that most replicas are damaged within the first poll interval.
  config.enable_damage = true;
  config.damage.mean_disk_years_between_failures = 0.01;  // ~100 events/disk-year
  config.damage.aus_per_disk = 2.0;
  const RunResult result = run_scenario(config);
  // With a majority of replicas damaged (all differently), polls cannot
  // reach a landslide: the system correctly reports irrecoverable damage
  // rather than silently repairing from corrupt majorities.
  EXPECT_GT(result.report.alarms, 0u);
}

TEST(PollerBehaviorTest, OuterCircleDiscoversNewPeers) {
  // Votes nominate reference-list members; agreeing outer-circle voters
  // enter the reference list (§4.2). Observable as outer votes > 0. The
  // reference list must be smaller than the population or there is nobody
  // left to discover.
  ScenarioConfig config = tiny_config();
  config.peer_count = 40;
  config.params.reference_list_target = 15;
  uint64_t outer_votes = 0;
  config.poll_observer = [&](net::NodeId, const protocol::PollOutcome& o) {
    outer_votes += o.outer_votes;
  };
  run_scenario(config);
  EXPECT_GT(outer_votes, 0u);
}

// Whole-scenario invariants swept across seeds and adversaries.
struct InvariantCase {
  uint64_t seed;
  std::optional<adversary::PhaseKind> attack;  // nullopt: undisturbed
};

class ScenarioInvariantTest : public ::testing::TestWithParam<InvariantCase> {};

TEST_P(ScenarioInvariantTest, AccountingInvariantsHold) {
  const InvariantCase param = GetParam();
  ScenarioConfig config = tiny_config();
  config.peer_count = 20;
  config.duration = sim::SimTime::months(8);
  config.seed = param.seed;
  config.enable_damage = true;
  config.damage.mean_disk_years_between_failures = 0.5;
  config.damage.aus_per_disk = 2.0;
  if (param.attack) {
    config.adversary = {{.kind = *param.attack,
                         .cadence = {.attack_duration = sim::SimTime::days(45),
                                     .recuperation = sim::SimTime::days(30),
                                     .coverage = 0.5}}};
  }
  const RunResult result = run_scenario(config);

  // Access failure is a probability.
  EXPECT_GE(result.report.access_failure_probability, 0.0);
  EXPECT_LE(result.report.access_failure_probability, 1.0);
  // Concluded polls never exceed started polls.
  EXPECT_LE(result.report.successful_polls + result.report.inquorate_polls +
                result.report.alarms,
            result.polls_started);
  // Effort is non-negative and attributed.
  EXPECT_GE(result.report.loyal_effort_seconds, 0.0);
  if (result.report.successful_polls > 0) {
    EXPECT_GT(result.report.loyal_effort_seconds, 0.0);
  }
  // The poll rate is fixed: started polls ≈ peers x AUs x (duration /
  // interval), within one poll per (peer, AU) for phase rounding.
  const double cycles = config.duration / config.params.inter_poll_interval;
  const uint64_t pairs = config.peer_count * config.au_count;
  EXPECT_LE(result.polls_started, pairs * static_cast<uint64_t>(cycles + 1.0));
  EXPECT_GE(result.polls_started, pairs * static_cast<uint64_t>(cycles - 1.0));
  // Determinism: the same config reruns identically.
  const RunResult again = run_scenario(config);
  EXPECT_EQ(again.messages_delivered, result.messages_delivered);
  EXPECT_DOUBLE_EQ(again.report.loyal_effort_seconds, result.report.loyal_effort_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndAdversaries, ScenarioInvariantTest,
    ::testing::Values(InvariantCase{1, std::nullopt}, InvariantCase{2, std::nullopt},
                      InvariantCase{3, adversary::PhaseKind::kPipeStoppage},
                      InvariantCase{4, adversary::PhaseKind::kPipeStoppage},
                      InvariantCase{5, adversary::PhaseKind::kAdmissionFlood},
                      InvariantCase{6, adversary::PhaseKind::kBruteForce},
                      InvariantCase{7, adversary::PhaseKind::kGradeRecovery}));

}  // namespace
}  // namespace lockss::experiment
