// Extension experiment (§5.1, "Rate Limitation"): the vote-flood adversary.
//
// The paper dismisses this adversary in one sentence — "The vote flood
// adversary is hamstrung by the fact that votes can be supplied only in
// response to an invitation by the putative victim poller, and pollers
// solicit votes at a fixed rate. Unsolicited votes are ignored." — and never
// plots it. This harness backs the sentence with numbers: friction and delay
// stay at 1.0 and the access-failure probability at baseline no matter how
// hard the flood runs, because every bogus vote dies at session dispatch
// before any hashing or proof verification.
#include <cstdio>

#include "experiment/aggregate.hpp"
#include "experiment/cli.hpp"
#include "experiment/scenario.hpp"
#include "experiment/table.hpp"

using namespace lockss;

int main(int argc, char** argv) {
  experiment::CliArgs args(argc, argv);
  const auto profile = experiment::resolve_profile(args, /*peers=*/40, /*aus=*/4,
                                                   /*years=*/1.0, /*seeds=*/1);
  experiment::print_preamble("Extension (§5.1): vote-flood adversary", profile);

  experiment::ScenarioConfig base = experiment::base_config(profile);
  const auto baseline =
      experiment::combine_results(experiment::run_replicated(base, profile.seeds));
  std::printf("# baseline: afp=%.3e successes=%llu effort/success=%.0fs\n",
              baseline.report.access_failure_probability,
              static_cast<unsigned long long>(baseline.report.successful_polls),
              baseline.report.effort_per_successful_poll);

  experiment::TableWriter table({"metric", "baseline", "under_flood"}, profile.csv);
  table.header();

  experiment::ScenarioConfig config = base;
  config.adversary = {{.kind = adversary::PhaseKind::kVoteFlood}};
  const auto attacked =
      experiment::combine_results(experiment::run_replicated(config, profile.seeds));
  const auto rel = experiment::relative_metrics(attacked, baseline);

  table.row({"bogus_votes_sent", "0", std::to_string(attacked.adversary_invitations)});
  table.row({"successful_polls", std::to_string(baseline.report.successful_polls),
             std::to_string(attacked.report.successful_polls)});
  table.row({"access_failure",
             experiment::TableWriter::scientific(baseline.report.access_failure_probability, 2),
             experiment::TableWriter::scientific(attacked.report.access_failure_probability, 2)});
  table.row({"coeff_friction", "1.00", experiment::TableWriter::fixed(rel.friction, 3)});
  table.row({"delay_ratio", "1.00", experiment::TableWriter::fixed(rel.delay_ratio, 3)});
  std::printf("# expectation: friction and delay pinned at ~1.0 — unsolicited votes are ignored\n");
  return 0;
}
