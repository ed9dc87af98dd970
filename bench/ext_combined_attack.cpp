// Extension experiment (§9): combined adversary strategies.
//
// "We need to consider combined adversary strategies; it could be that the
// adversary can use an attrition attack to weaken the system in some way
// that leaves it more vulnerable to other attack goals."
//
// This harness runs the brute-force adversary (application level, NONE
// defection) concurrently with repeated pipe stoppages (network level) over
// a sweep of blackout coverages, and compares each combination against the
// two single-vector attacks. The question: does the blackout amplify the
// application-level attack (super-additive harm), or do the vectors merely
// coexist? In this design the blackout *severs* the brute-force lanes into
// covered victims, so friction should stay near the brute-force level while
// delay tracks the pipe-stoppage level — the defenses do not compound the
// damage.
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
  experiment::print_preamble("Extension (§9): combined pipe-stoppage + brute-force attack",
                             profile);

  const experiment::ScenarioConfig base = experiment::base_config(profile);
  const sim::SimTime attack_duration = sim::SimTime::days(args.real("attack-days", 60.0));

  const auto baseline =
      experiment::combine_results(experiment::run_replicated(base, profile.seeds));

  experiment::TableWriter table({"coverage", "attack", "coeff_friction", "delay_ratio",
                                 "access_failure", "successes"},
                                profile.csv);
  table.header();

  const auto run_one = [&](const adversary::AdversaryPipeline& pipeline, double coverage,
                           const char* label) {
    experiment::ScenarioConfig config = base;
    config.adversary = pipeline;
    const auto attacked =
        experiment::combine_results(experiment::run_replicated(config, profile.seeds));
    const auto rel = experiment::relative_metrics(attacked, baseline);
    table.row({experiment::TableWriter::fixed(coverage, 0) + "%", label,
               experiment::TableWriter::fixed(rel.friction, 2),
               experiment::TableWriter::fixed(rel.delay_ratio, 2),
               experiment::TableWriter::scientific(rel.access_failure, 2),
               std::to_string(attacked.report.successful_polls)});
  };

  const adversary::AdversaryPhase brute = {.kind = adversary::PhaseKind::kBruteForce};
  for (double coverage : args.reals("coverages", {30, 60, 100})) {
    const adversary::AdversaryPhase stoppage = {
        .kind = adversary::PhaseKind::kPipeStoppage,
        .cadence = {.attack_duration = attack_duration,
                    .recuperation = sim::SimTime::days(30),
                    .coverage = coverage / 100.0}};
    run_one({stoppage}, coverage, "stoppage_only");
    run_one({brute}, coverage, "brute_only");
    // The blackout installs first: phase order is part of the RNG stream.
    run_one({stoppage, brute}, coverage, "combined");
  }
  std::printf(
      "# expectation: combined delay tracks stoppage_only, combined friction tracks\n"
      "# brute_only; no super-additive harm emerges from stacking the vectors\n");
  return 0;
}
