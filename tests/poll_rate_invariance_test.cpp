// §5.1 "Rate Limitation": "Peers defend against all these adversaries by
// setting their rate limits autonomously, not varying them in response to
// other peers' actions. ... Because peers do not react, the poll rate
// adversary has no opportunity to attack."
//
// These tests pin the no-reaction property: the rate at which loyal peers
// *start* polls is a function of their own configuration only, invariant
// under every adversary in the suite.
#include <gtest/gtest.h>

#include "experiment/scenario.hpp"

namespace lockss::experiment {
namespace {

ScenarioConfig rate_config(uint64_t seed) {
  ScenarioConfig config;
  config.peer_count = 20;
  config.au_count = 2;
  config.duration = sim::SimTime::years(1);
  config.seed = seed;
  config.enable_damage = false;
  return config;
}

adversary::AdversaryPhase phase(adversary::PhaseKind kind) {
  return {.kind = kind,
          .cadence = {.attack_duration = sim::SimTime::days(300),
                      .recuperation = sim::SimTime::days(30),
                      .coverage = 1.0}};
}

struct AttackCase {
  const char* name;
  adversary::AdversaryPipeline pipeline;
};

// polls_started counts every poll cycle a peer began. One poll per AU per
// interval (phase-randomized start) over a year of 3-month intervals gives
// 20 * 2 * ~4 with edge effects; the exact value is deterministic per seed.
class PollRateInvarianceTest : public ::testing::TestWithParam<AttackCase> {};

TEST_P(PollRateInvarianceTest, PollStartRateUnchangedByAttack) {
  ScenarioConfig config = rate_config(21);
  config.adversary = GetParam().pipeline;
  const RunResult attacked = run_scenario(config);
  config.adversary.clear();
  const RunResult baseline = run_scenario(config);

  // Poll *starts* are scheduled autonomously: a fixed rate per AU, never
  // backed off, never sped up, no matter what the adversary does. A poll
  // that cannot conclude still re-arms its successor at the same cadence, so
  // the counts match within the last interval's edge effects.
  const double attacked_rate = static_cast<double>(attacked.polls_started);
  const double baseline_rate = static_cast<double>(baseline.polls_started);
  EXPECT_NEAR(attacked_rate, baseline_rate, baseline_rate * 0.15)
      << "adversary changed the autonomous poll rate";
}

INSTANTIATE_TEST_SUITE_P(
    AllAdversaries, PollRateInvarianceTest,
    ::testing::Values(
        AttackCase{"PipeStoppage", {phase(adversary::PhaseKind::kPipeStoppage)}},
        AttackCase{"AdmissionFlood", {phase(adversary::PhaseKind::kAdmissionFlood)}},
        AttackCase{"BruteForce", {phase(adversary::PhaseKind::kBruteForce)}},
        AttackCase{"VoteFlood", {phase(adversary::PhaseKind::kVoteFlood)}},
        AttackCase{"Combined",
                   {phase(adversary::PhaseKind::kPipeStoppage),
                    phase(adversary::PhaseKind::kBruteForce)}}),
    [](const ::testing::TestParamInfo<AttackCase>& param) { return param.param.name; });

TEST(PollRateConfigurationTest, RateTracksConfiguredInterval) {
  // Halving the inter-poll interval doubles poll starts (autonomy also means
  // the rate *does* follow the operator's configuration).
  ScenarioConfig config = rate_config(22);
  const RunResult slow = run_scenario(config);
  config.params.inter_poll_interval = sim::SimTime::months(1.5);
  const RunResult fast = run_scenario(config);
  EXPECT_GT(fast.polls_started, slow.polls_started * 3 / 2);
}

}  // namespace
}  // namespace lockss::experiment
