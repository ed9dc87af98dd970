// Extension experiment (§9 future work): adaptive acceptance probability.
//
// "Loyal peers could modulate the probability of acceptance of a poll
// request according to their recent busyness. The effect would be to raise
// the marginal effort required to increase the loyal peer's busyness as the
// attack effort increases."
//
// This harness runs the §7.4 brute-force (NONE) attack with the adaptive
// defense off and on. Expected shape: with the defense on, the adversary
// lands fewer admissions per unit effort (higher cost ratio, lower
// friction), while the no-attack baseline is essentially unaffected (loyal
// peers are rarely busy enough to trip the modulation).
#include <cstdio>

#include "experiment/aggregate.hpp"
#include "experiment/cli.hpp"
#include "experiment/scenario.hpp"
#include "experiment/table.hpp"

using namespace lockss;

int main(int argc, char** argv) {
  experiment::CliArgs args(argc, argv);
  const auto profile = experiment::resolve_profile(args, /*peers=*/50, /*aus=*/3,
                                                   /*years=*/1.0, /*seeds=*/1);
  experiment::print_preamble("Extension (§9): adaptive acceptance probability", profile);

  experiment::TableWriter table({"adaptive", "friction", "cost_ratio", "admissions",
                                 "baseline_success", "attacked_success"},
                                profile.csv);
  table.header();

  for (bool adaptive : {false, true}) {
    experiment::ScenarioConfig config = experiment::base_config(profile);
    config.params.adaptive_acceptance = adaptive;
    config.params.adaptive_scale = 4.0;
    const auto baseline =
        experiment::combine_results(experiment::run_replicated(config, profile.seeds));
    config.adversary = {{.kind = adversary::PhaseKind::kBruteForce}};
    const auto attacked =
        experiment::combine_results(experiment::run_replicated(config, profile.seeds));
    const auto rel = experiment::relative_metrics(attacked, baseline);
    table.row({adaptive ? "on" : "off", experiment::TableWriter::fixed(rel.friction, 2),
               experiment::TableWriter::fixed(rel.cost_ratio, 2),
               std::to_string(attacked.adversary_admissions),
               std::to_string(baseline.report.successful_polls),
               std::to_string(attacked.report.successful_polls)});
  }
  std::printf("# expectation: 'on' lowers friction and raises the adversary's cost ratio\n");
  return 0;
}
