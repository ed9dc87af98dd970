// Composing a custom adversary scenario against the public API.
//
// The paper's §9 asks how *combined* strategies fare. Before PR 4 this
// example hand-built a vote-flood adversary in ~60 lines of C++; the
// campaign subsystem turned that into a data file. The scenario — a small
// deployment under a continuous unsolicited-vote spray — now lives in
// campaigns/vote_flood_demo.json, and this program demonstrates both ways
// of reaching it:
//
//   * declaratively: load the campaign file, run it;
//   * programmatically: the same pipeline built in code via
//     adversary::AdversaryPhase (what the campaign compiler emits),
//     for experiments that need to construct scenarios on the fly.
//
// Both demonstrate the §5.1 result: "votes can be supplied only in
// response to an invitation by the putative victim poller... Unsolicited
// votes are ignored."
//
//   $ ./build/example_custom_adversary
#include <cstdio>
#include <string>

#include "campaign/engine.hpp"
#include "campaign/spec.hpp"

using namespace lockss;

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : std::string(LOCKSS_SOURCE_DIR) + "/campaigns/vote_flood_demo.json";
  campaign::Spec spec;
  std::string error;
  if (!campaign::load_spec_file(path, &spec, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  campaign::CompiledCampaign compiled;
  if (!campaign::compile_campaign(spec, &compiled, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  campaign::RunOptions options;
  options.quiet = true;
  options.write_outputs = false;  // demo reads the in-memory outcome only
  campaign::CampaignOutcome outcome;
  if (!campaign::run_campaign(compiled, options, &outcome, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const experiment::RunResult& flooded = outcome.cells.front();

  // The same scenario built programmatically: a ScenarioConfig carrying an
  // explicit adversary pipeline — one vote-flood phase — exactly what the
  // campaign compiler produced above. Custom experiments can assemble any
  // phase mix this way (windows, cadences, multiple concurrent kinds).
  experiment::ScenarioConfig config = compiled.cells.front().config;
  adversary::AdversaryPhase flood;
  flood.kind = adversary::PhaseKind::kVoteFlood;
  flood.minion_count = 64;
  config.adversary = {flood};
  const experiment::RunResult programmatic = experiment::run_scenario(config);

  std::printf("Vote flood demo: %u peers, %u AU(s), %.1f simulated months\n\n", spec.peers,
              spec.aus, spec.duration.to_days() / 30.0);
  std::printf("  bogus votes sent by adversary:  %llu\n",
              static_cast<unsigned long long>(flooded.adversary_invitations));
  std::printf("  successful polls (baseline):    %llu\n",
              static_cast<unsigned long long>(outcome.baseline.report.successful_polls));
  std::printf("  successful polls (under flood): %llu\n",
              static_cast<unsigned long long>(flooded.report.successful_polls));
  std::printf("  alarms:                         %llu\n",
              static_cast<unsigned long long>(flooded.report.alarms));
  std::printf("  programmatic pipeline run:      %llu votes, %llu successful polls\n",
              static_cast<unsigned long long>(programmatic.adversary_invitations),
              static_cast<unsigned long long>(programmatic.report.successful_polls));
  std::printf(
      "\n§5.1: \"The vote flood adversary is hamstrung by the fact that votes can\n"
      "be supplied only in response to an invitation by the putative victim\n"
      "poller... Unsolicited votes are ignored.\" Polls proceeded normally and\n"
      "no evaluation effort was spent on any bogus vote.\n");
  return 0;
}
