// The §5.1 vote-flood adversary: "hamstrung by the fact that votes can be
// supplied only in response to an invitation by the putative victim poller
// ... Unsolicited votes are ignored."
#include <gtest/gtest.h>

#include "adversary/vote_flood.hpp"
#include "experiment/aggregate.hpp"
#include "experiment/scenario.hpp"

namespace lockss::experiment {
namespace {

ScenarioConfig flood_config() {
  ScenarioConfig config;
  config.peer_count = 20;
  config.au_count = 2;
  config.duration = sim::SimTime::months(9);
  config.seed = 31;
  config.enable_damage = false;
  return config;
}

TEST(VoteFloodIntegrationTest, FloodBuysNoFriction) {
  ScenarioConfig config = flood_config();
  config.adversary = {{.kind = adversary::PhaseKind::kVoteFlood}};
  const RunResult attacked = run_scenario(config);
  config.adversary.clear();
  const RunResult baseline = run_scenario(config);

  // The flood really happened — hundreds of thousands of bogus votes.
  EXPECT_GT(attacked.adversary_invitations, 100000u);
  // Zero effect on throughput: every vote died at session dispatch.
  EXPECT_EQ(attacked.report.successful_polls, baseline.report.successful_polls);
  EXPECT_EQ(attacked.report.alarms, 0u);
  // Loyal effort rises by at most a sliver (message-arrival overhead only;
  // no hashing, no proof verification).
  const RelativeMetrics rel = relative_metrics(attacked, baseline);
  EXPECT_LT(rel.friction, 1.05);
  EXPECT_GE(rel.friction, 0.99);
}

TEST(VoteFloodIntegrationTest, ReplayedLivePollIdsAreStillRejected) {
  // With replay_fraction forced to 1 every bogus vote names a poll the
  // victim is actually running; the invitee check must still reject all of
  // them, so tallies stay clean and polls conclude exactly as in baseline.
  ScenarioConfig config = flood_config();
  config.seed = 32;
  config.adversary = {{.kind = adversary::PhaseKind::kVoteFlood}};
  const RunResult attacked = run_scenario(config);
  config.adversary.clear();
  const RunResult baseline = run_scenario(config);
  EXPECT_EQ(attacked.report.successful_polls, baseline.report.successful_polls);
  EXPECT_EQ(attacked.report.inquorate_polls, baseline.report.inquorate_polls);
  EXPECT_EQ(attacked.report.alarms, 0u);
}

TEST(VoteFloodIntegrationTest, AdversaryEffortIsNearZero) {
  // The attack is nearly effortless for the adversary too (garbage proofs
  // cost nothing) — but it buys him nothing, which is the point: the rate
  // limits remove the target, not the attacker's budget.
  ScenarioConfig config = flood_config();
  config.adversary = {{.kind = adversary::PhaseKind::kVoteFlood}};
  const RunResult attacked = run_scenario(config);
  EXPECT_LT(attacked.report.adversary_effort_seconds, attacked.report.loyal_effort_seconds * 0.01);
}

}  // namespace
}  // namespace lockss::experiment
