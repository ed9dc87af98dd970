// Wall-clock timing probe for bench calibration, riding the obs profiler:
// each probe runs with self-profiling on and reports the phase split
// (setup / run / harvest) plus peak RSS alongside the headline numbers.
#include <cstdio>
#include <optional>

#include "experiment/scenario.hpp"
#include "obs/profile.hpp"

using namespace lockss;

// `kind` names the one attack phase; nullopt runs undisturbed.
static void probe(uint32_t peers, uint32_t aus, double years,
                  std::optional<adversary::PhaseKind> kind) {
  experiment::ScenarioConfig config;
  config.peer_count = peers;
  config.au_count = aus;
  config.duration = sim::SimTime::years(years);
  config.seed = 1;
  if (kind) {
    config.adversary = {{.kind = *kind,
                         .cadence = {.attack_duration = sim::SimTime::days(30),
                                     .recuperation = sim::SimTime::days(30),
                                     .coverage = 1.0}}};
  }
  config.obs_profile = true;
  const obs::Stopwatch watch;
  const experiment::RunResult r = experiment::run_scenario(config);
  const double ms = watch.elapsed_ms();
  std::printf("peers=%u aus=%u years=%.1f adv=%s: %.0f ms "
              "(setup %.0f, run %.0f, harvest %.0f), polls=%llu ok=%llu afp=%.2e\n",
              peers, aus, years, kind ? adversary::phase_kind_name(*kind) : "none", ms,
              r.profile.setup_ms, r.profile.run_ms, r.profile.harvest_ms,
              static_cast<unsigned long long>(r.polls_started),
              static_cast<unsigned long long>(r.report.successful_polls),
              r.report.access_failure_probability);
}

int main() {
  probe(100, 5, 2.0, std::nullopt);
  probe(100, 10, 2.0, std::nullopt);
  probe(100, 25, 2.0, std::nullopt);
  probe(100, 10, 2.0, adversary::PhaseKind::kPipeStoppage);
  probe(100, 10, 2.0, adversary::PhaseKind::kAdmissionFlood);
  probe(100, 10, 1.0, adversary::PhaseKind::kBruteForce);
  std::printf("peak_rss_kb=%llu\n", static_cast<unsigned long long>(obs::vm_hwm_kb()));
  return 0;
}
