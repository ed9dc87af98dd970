// Extension experiment (§7.4, closing paragraph): the grade-recovery
// adversary vs the brute-force adversary.
//
// The paper claims — without publishing numbers ("We leave the details for
// an extended version of this paper") — that an adversary whose minions earn
// even/credit standing by supplying valid votes and then defect "is
// rate-limited enough that it is less effective than brute force". This
// harness measures both adversaries in the same deployment so the claim can
// be checked: the grade-recovery attack should impose *less* friction on the
// defenders, because its admissions are gated on the victims' own (fixed)
// invitation rate rather than on the once-a-day unknown/debt channel.
#include <cstdio>

#include "experiment/aggregate.hpp"
#include "experiment/cli.hpp"
#include "experiment/scenario.hpp"
#include "experiment/table.hpp"

using namespace lockss;

int main(int argc, char** argv) {
  experiment::CliArgs args(argc, argv);
  const auto profile = experiment::resolve_profile(args, /*peers=*/60, /*aus=*/4,
                                                   /*years=*/1.0, /*seeds=*/1);
  experiment::print_preamble(
      "Extension (§7.4): grade-recovery adversary vs brute force", profile);

  experiment::ScenarioConfig base = experiment::base_config(profile);
  const auto baseline =
      experiment::combine_results(experiment::run_replicated(base, profile.seeds));

  experiment::TableWriter table({"adversary", "coeff_friction", "cost_ratio", "delay_ratio",
                                 "access_failure", "admissions_or_votes"},
                                profile.csv);
  table.header();

  {
    experiment::ScenarioConfig config = base;
    config.adversary = {{.kind = adversary::PhaseKind::kBruteForce}};
    const auto attacked =
        experiment::combine_results(experiment::run_replicated(config, profile.seeds));
    const auto rel = experiment::relative_metrics(attacked, baseline);
    table.row({"brute_force_NONE", experiment::TableWriter::fixed(rel.friction, 2),
               experiment::TableWriter::fixed(rel.cost_ratio, 2),
               experiment::TableWriter::fixed(rel.delay_ratio, 2),
               experiment::TableWriter::scientific(rel.access_failure, 2),
               std::to_string(attacked.adversary_admissions)});
  }
  {
    experiment::ScenarioConfig config = base;
    config.adversary = {{.kind = adversary::PhaseKind::kGradeRecovery}};
    const auto attacked =
        experiment::combine_results(experiment::run_replicated(config, profile.seeds));
    const auto rel = experiment::relative_metrics(attacked, baseline);
    table.row({"grade_recovery", experiment::TableWriter::fixed(rel.friction, 2),
               experiment::TableWriter::fixed(rel.cost_ratio, 2),
               experiment::TableWriter::fixed(rel.delay_ratio, 2),
               experiment::TableWriter::scientific(rel.access_failure, 2),
               std::to_string(attacked.adversary_admissions)});
  }
  std::printf("# expectation: grade_recovery friction < brute_force friction (§7.4)\n");
  return 0;
}
