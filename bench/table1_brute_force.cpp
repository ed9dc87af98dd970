// Table 1 (§7.4): the brute-force effortful adversary defecting at INTRO,
// REMAINING, or NONE — coefficient of friction, cost ratio, delay ratio, and
// access failure probability, for the base collection and (with --paper) a
// layered large collection.
//
// Paper shape: the lowest *cost ratio* (cheapest harm per attacker dollar)
// comes from full participation (NONE ≈ 1.02), whose friction is ~2.6; the
// INTRO deserter has the worst cost ratio (1.93) and the least friction
// (1.40). Access failure stays within ~1.3x of baseline everywhere: rate
// limits deny the adversary's resource advantage any real purchase.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "experiment/aggregate.hpp"
#include "experiment/cli.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "experiment/table.hpp"

using namespace lockss;

int main(int argc, char** argv) {
  experiment::CliArgs args(argc, argv);
  const auto profile = experiment::resolve_profile(args, /*peers=*/60, /*aus=*/4,
                                                   /*years=*/1.0, /*seeds=*/1);
  experiment::print_preamble("Table 1: brute-force adversary defection points", profile);
  const uint32_t layers = static_cast<uint32_t>(args.integer("layers", profile.paper ? 12 : 0));

  experiment::ScenarioConfig base = experiment::base_config(profile);
  const auto baseline =
      experiment::combine_results(experiment::run_replicated(base, profile.seeds));
  std::printf("# baseline: afp=%.3e gap=%.1fd effort/success=%.0fs\n",
              baseline.report.access_failure_probability, baseline.report.mean_success_gap_days,
              baseline.report.effort_per_successful_poll);

  experiment::TableWriter table(
      {"defection", "collection", "coeff_friction", "cost_ratio", "delay_ratio",
       "access_failure"},
      profile.csv);
  table.header();

  // All three defection-point campaigns are independent: build each attack
  // config once (reused verbatim by the layered runs below), then batch the
  // full (defection × seed) grid through the parallel runner in one shot.
  const std::vector<adversary::DefectionPoint> defections = {
      adversary::DefectionPoint::kIntro, adversary::DefectionPoint::kRemaining,
      adversary::DefectionPoint::kNone};
  std::vector<experiment::ScenarioConfig> attacks;
  for (adversary::DefectionPoint defection : defections) {
    experiment::ScenarioConfig config = base;
    config.adversary = {{.kind = adversary::PhaseKind::kBruteForce, .defection = defection}};
    attacks.push_back(config);
  }
  const auto attacked_results = experiment::run_replicated_grid(attacks, profile.seeds);

  // Layered campaigns (§6.3 methodology): layers within one campaign are
  // sequentially dependent, but the (config × seed) campaigns are
  // independent — fan them all out across the parallel runner in one shot
  // (baseline first, then the three defection points), instead of running
  // each campaign serially inside the row loop.
  std::vector<experiment::RunResult> layered_combined;
  if (layers > 0) {
    std::vector<experiment::ScenarioConfig> campaigns;
    campaigns.push_back(base);
    campaigns.insert(campaigns.end(), attacks.begin(), attacks.end());
    layered_combined =
        experiment::run_layered_replicated_grid(campaigns, layers, profile.seeds);
  }

  for (size_t d = 0; d < defections.size(); ++d) {
    const adversary::DefectionPoint defection = defections[d];
    const experiment::RunResult& attacked = attacked_results[d];
    const auto rel = experiment::relative_metrics(attacked, baseline);
    table.row({adversary::defection_point_name(defection),
               std::to_string(profile.aus) + " AUs",
               experiment::TableWriter::fixed(rel.friction, 2),
               experiment::TableWriter::fixed(rel.cost_ratio, 2),
               experiment::TableWriter::fixed(rel.delay_ratio, 2),
               experiment::TableWriter::scientific(rel.access_failure, 2)});
    if (layers > 0) {
      const auto& layered_baseline = layered_combined[0];
      const auto& layered_attack = layered_combined[1 + d];
      const auto lrel = experiment::relative_metrics(layered_attack, layered_baseline);
      table.row({adversary::defection_point_name(defection),
                 std::to_string(profile.aus * layers) + " AUs (layered)",
                 experiment::TableWriter::fixed(lrel.friction, 2),
                 experiment::TableWriter::fixed(lrel.cost_ratio, 2),
                 experiment::TableWriter::fixed(lrel.delay_ratio, 2),
                 experiment::TableWriter::scientific(lrel.access_failure, 2)});
    }
  }
  return 0;
}
