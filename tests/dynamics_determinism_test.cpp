// Deployment-dynamics determinism and teardown suite.
//
//   * Schedule properties: randomized churn configs produce well-formed
//     schedules — sorted, strictly alternating per peer (build-time
//     interval merging means the runtime can never double-depart), clipped
//     to the run, arrival counts consistent.
//   * Transition invariants: a randomized churn schedule replayed over a
//     live deployment must leave, after *every* transition, the departed
//     peer with zero live sessions, zero booked schedule slots (the
//     teardown audit: no leaked reservations), untouched metrics-slot
//     registration (everything registers at setup — the determinism
//     contract), and reference lists that only name registered identities.
//   * Bit-identity: a churn grid spanning session churn, regional outages,
//     arrivals, operators, and an adversary must produce bit-identical
//     RunResults (including the availability/recovery trace series) under
//     1, 2, and 8 parallel workers — the experiment_parallel_test pattern
//     extended to the dynamics subsystem.
//   * Death tests: double departure and recover-while-online assert, and
//     polls against a departed peer are absorbed without leaks.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "dynamics/churn.hpp"
#include "dynamics/operator_response.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "metrics/collector.hpp"
#include "net/fault_injection.hpp"
#include "net/network.hpp"
#include "net/node_slot_registry.hpp"
#include "peer/peer.hpp"
#include "sim/simulator.hpp"

namespace lockss {
namespace {

// --- Schedule properties ---------------------------------------------------

dynamics::ChurnConfig random_config(sim::Rng& rng) {
  dynamics::ChurnConfig config;
  if (rng.bernoulli(0.8)) {
    config.leave_rate_per_peer_year = rng.uniform() * 4.0;
    config.crash_rate_per_peer_year = rng.uniform() * 2.0;
  }
  config.mean_downtime_days = 1.0 + rng.uniform() * 20.0;
  if (rng.bernoulli(0.5)) {
    config.arrival_rate_per_year = rng.uniform() * 12.0;
  }
  if (rng.bernoulli(0.5)) {
    config.regions = 1 + static_cast<uint32_t>(rng.index(4));
    config.regional_outage_rate_per_year = rng.uniform() * 6.0;
    config.regional_outage_days = 0.5 + rng.uniform() * 10.0;
    config.regional_recovery_stagger_hours = rng.uniform() * 24.0;
    config.regional_state_loss = rng.bernoulli(0.5);
  }
  return config;
}

TEST(ChurnScheduleTest, RandomSchedulesAreWellFormed) {
  sim::Rng meta(20260730);
  const sim::SimTime duration = sim::SimTime::years(2);
  for (int iteration = 0; iteration < 50; ++iteration) {
    const uint32_t established = 1 + static_cast<uint32_t>(meta.index(40));
    const dynamics::ChurnConfig config = random_config(meta);
    sim::Rng rng(meta.next_u64());
    const dynamics::ChurnSchedule schedule =
        dynamics::build_churn_schedule(config, established, duration, rng);

    // Sorted by (time, peer, kind); everything inside the run.
    for (size_t i = 0; i < schedule.events.size(); ++i) {
      const dynamics::ChurnEvent& e = schedule.events[i];
      EXPECT_GE(e.at, sim::SimTime::zero());
      EXPECT_LT(e.at, duration);
      if (i > 0) {
        const dynamics::ChurnEvent& prev = schedule.events[i - 1];
        EXPECT_TRUE(prev.at < e.at ||
                    (prev.at == e.at &&
                     (prev.peer < e.peer ||
                      (prev.peer == e.peer &&
                       static_cast<int>(prev.kind) < static_cast<int>(e.kind)))))
            << "events out of order at " << i;
      }
    }
    // Per-peer transitions strictly alternate down/up; arrival ordinals are
    // each started exactly once.
    std::vector<bool> down(established, false);
    std::set<uint32_t> arrivals_seen;
    for (const dynamics::ChurnEvent& e : schedule.events) {
      switch (e.kind) {
        case dynamics::ChurnEventKind::kArrival:
          EXPECT_LT(e.peer, schedule.arrival_count);
          EXPECT_TRUE(arrivals_seen.insert(e.peer).second) << "arrival started twice";
          break;
        case dynamics::ChurnEventKind::kLeave:
        case dynamics::ChurnEventKind::kCrash:
          ASSERT_LT(e.peer, established);
          EXPECT_FALSE(down[e.peer]) << "double departure in schedule";
          down[e.peer] = true;
          break;
        case dynamics::ChurnEventKind::kRecover:
          ASSERT_LT(e.peer, established);
          EXPECT_TRUE(down[e.peer]) << "recovery while up";
          down[e.peer] = false;
          break;
      }
    }
    EXPECT_EQ(arrivals_seen.size(), schedule.arrival_count);
  }
}

TEST(ChurnScheduleTest, PureFunctionOfConfigAndSeed) {
  dynamics::ChurnConfig config;
  config.leave_rate_per_peer_year = 2.0;
  config.crash_rate_per_peer_year = 1.0;
  config.arrival_rate_per_year = 6.0;
  config.regions = 3;
  config.regional_outage_rate_per_year = 2.0;
  sim::Rng a(99);
  sim::Rng b(99);
  const auto one = dynamics::build_churn_schedule(config, 20, sim::SimTime::years(1), a);
  const auto two = dynamics::build_churn_schedule(config, 20, sim::SimTime::years(1), b);
  ASSERT_EQ(one.events.size(), two.events.size());
  ASSERT_GT(one.events.size(), 0u);
  for (size_t i = 0; i < one.events.size(); ++i) {
    EXPECT_EQ(one.events[i].at, two.events[i].at);
    EXPECT_EQ(one.events[i].kind, two.events[i].kind);
    EXPECT_EQ(one.events[i].peer, two.events[i].peer);
    EXPECT_EQ(one.events[i].state_loss, two.events[i].state_loss);
  }
  EXPECT_EQ(one.arrival_count, two.arrival_count);
}

// --- Transition invariants over a live deployment --------------------------

// A small self-contained deployment (the integration_churn_test pattern)
// the churn model can push around, with every invariant checkable from the
// outside.
class DynamicDeployment {
 public:
  static constexpr uint32_t kPeers = 16;
  static constexpr storage::AuId kAu{0};

  explicit DynamicDeployment(uint64_t seed) : network_(simulator_, sim::Rng(7)) {
    for (uint32_t p = 0; p < kPeers; ++p) {
      registry_.register_node(net::NodeId{p});
    }
    env_.simulator = &simulator_;
    env_.network = &network_;
    env_.metrics = &collector_;
    env_.nodes = &registry_;
    env_.enable_damage = false;
    env_.params.quorum = 4;
    env_.params.max_disagreeing = 1;
    env_.params.reference_list_target = 10;
    collector_.set_total_replicas(kPeers);

    sim::Rng root(seed);
    for (uint32_t p = 0; p < kPeers; ++p) {
      ids_.push_back(net::NodeId{p});
      peers_.push_back(std::make_unique<peer::Peer>(env_, net::NodeId{p}, root.split()));
      peers_.back()->join_au(kAu);
    }
    sim::Rng boot = root.split();
    for (uint32_t p = 0; p < kPeers; ++p) {
      std::vector<net::NodeId> others;
      for (uint32_t q = 0; q < kPeers; ++q) {
        if (q != p) {
          others.push_back(ids_[q]);
        }
      }
      peers_[p]->set_friends(boot.sample(others, 4));
      const auto seeds = boot.sample(others, env_.params.reference_list_target);
      peers_[p]->seed_reference_list(kAu, seeds);
      for (net::NodeId o : seeds) {
        peers_[p]->seed_grade(kAu, o, reputation::Grade::kEven);
        peers_[o.value]->seed_grade(kAu, ids_[p], reputation::Grade::kEven);
      }
    }
    for (auto& p : peers_) {
      p->start();
    }
  }

  std::vector<peer::Peer*> peer_ptrs() {
    std::vector<peer::Peer*> out;
    for (auto& p : peers_) {
      out.push_back(p.get());
    }
    return out;
  }

  sim::Simulator simulator_;
  net::Network network_;
  net::NodeSlotRegistry registry_;
  metrics::MetricsCollector collector_;
  peer::PeerEnvironment env_;
  std::vector<std::unique_ptr<peer::Peer>> peers_;
  std::vector<net::NodeId> ids_;
};

TEST(DynamicsInvariantTest, RandomChurnInterleavingsKeepInvariantsAfterEveryTransition) {
  sim::Rng meta(4242);
  for (int iteration = 0; iteration < 5; ++iteration) {
    DynamicDeployment deployment(1000 + static_cast<uint64_t>(iteration));

    dynamics::ChurnConfig config;
    config.leave_rate_per_peer_year = 3.0 + meta.uniform() * 3.0;
    config.crash_rate_per_peer_year = 1.0 + meta.uniform() * 2.0;
    config.mean_downtime_days = 5.0 + meta.uniform() * 20.0;
    config.regions = 2;
    config.regional_outage_rate_per_year = 2.0;
    config.regional_outage_days = 4.0;
    config.regional_recovery_stagger_hours = 8.0;
    config.regional_state_loss = meta.bernoulli(0.5);
    sim::Rng churn_rng(meta.next_u64());
    dynamics::ChurnSchedule schedule = dynamics::build_churn_schedule(
        config, DynamicDeployment::kPeers, sim::SimTime::years(1), churn_rng);
    ASSERT_GT(schedule.events.size(), 0u);

    net::OfflineSetFilter offline;
    deployment.network_.add_filter(&offline);
    dynamics::ChurnModel model(deployment.simulator_, std::move(schedule),
                               deployment.peer_ptrs(), {}, &offline);

    const uint32_t peers_registered = deployment.collector_.slots().peer_count();
    const uint32_t aus_registered = deployment.collector_.slots().au_count();
    uint64_t transitions = 0;
    model.set_transition_hook([&](const dynamics::ChurnEvent& event) {
      ++transitions;
      const sim::SimTime now = deployment.simulator_.now();
      if (event.kind == dynamics::ChurnEventKind::kArrival) {
        return;
      }
      peer::Peer& peer = *deployment.peers_[event.peer];
      if (event.kind == dynamics::ChurnEventKind::kRecover) {
        EXPECT_TRUE(peer.online());
      } else {
        // Teardown audit: a departed peer holds no live sessions and, with
        // every session's pending reservations released, no booked future
        // slots either.
        EXPECT_FALSE(peer.online());
        EXPECT_EQ(peer.active_poller_sessions(), 0u);
        EXPECT_EQ(peer.active_voter_sessions(), 0u);
        EXPECT_TRUE(peer.schedule().intervals_after(now).empty())
            << "leaked schedule reservations at departure";
      }
      // Metrics-slot invariant: registration is setup-time only; no
      // transition may grow the dense registry.
      EXPECT_EQ(deployment.collector_.slots().peer_count(), peers_registered);
      EXPECT_EQ(deployment.collector_.slots().au_count(), aus_registered);
      // Session tables at *every* peer only hold live ids, and reference
      // lists only name registered identities.
      for (uint32_t p = 0; p < DynamicDeployment::kPeers; ++p) {
        for (net::NodeId member :
             deployment.peers_[p]->reference_list(DynamicDeployment::kAu).members()) {
          EXPECT_LT(member.value, DynamicDeployment::kPeers);
        }
      }
    });
    model.start();
    deployment.simulator_.run_until(sim::SimTime::years(1));

    EXPECT_GT(transitions, 0u);
    EXPECT_GT(model.departures(), 0u);
    EXPECT_GT(model.recoveries(), 0u);
    EXPECT_LE(model.recoveries(), model.departures());
    EXPECT_GT(model.mean_recovery_days(), 0.0);
    EXPECT_LT(model.availability_mean(sim::SimTime::years(1)), 1.0);
    // The deployment as a whole kept working through the churn.
    const auto report = deployment.collector_.finalize(sim::SimTime::years(1));
    EXPECT_GT(report.successful_polls, 0u);
    deployment.network_.remove_filter(&offline);
  }
}

TEST(DynamicsInvariantTest, PollAgainstDepartedPeerIsAbsorbed) {
  // One voter departs for the middle third of the run: polls that sampled
  // it simply lose a voter (ack timeouts, §5.2 desynchronization absorbs
  // sporadic unavailability), and the departed peer comes back clean.
  DynamicDeployment deployment(77);
  dynamics::ChurnSchedule schedule;
  schedule.events.push_back(dynamics::ChurnEvent{sim::SimTime::days(120),
                                                 dynamics::ChurnEventKind::kLeave, 3, false});
  schedule.events.push_back(dynamics::ChurnEvent{sim::SimTime::days(240),
                                                 dynamics::ChurnEventKind::kRecover, 3, false});
  net::OfflineSetFilter offline;
  deployment.network_.add_filter(&offline);
  dynamics::ChurnModel model(deployment.simulator_, std::move(schedule),
                             deployment.peer_ptrs(), {}, &offline);
  model.start();
  deployment.simulator_.run_until(sim::SimTime::years(1));

  EXPECT_TRUE(deployment.peers_[3]->online());
  const auto report = deployment.collector_.finalize(sim::SimTime::years(1));
  EXPECT_GT(report.successful_polls, 0u);
  EXPECT_EQ(model.departures(), 1u);
  EXPECT_EQ(model.recoveries(), 1u);
  deployment.network_.remove_filter(&offline);
}

// --- Death tests: driver-contract violations assert ------------------------

TEST(DynamicsDeathTest, DoubleDepartureAsserts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  DynamicDeployment deployment(5);
  deployment.peers_[0]->depart();
  EXPECT_DEATH(deployment.peers_[0]->depart(), "double departure");
}

TEST(DynamicsDeathTest, RecoverWhileOnlineAsserts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  DynamicDeployment deployment(6);
  EXPECT_DEATH(deployment.peers_[0]->recover(false), "while online");
}

// --- Scenario-level bit-identity across worker counts ----------------------

void expect_identical(const experiment::RunResult& a, const experiment::RunResult& b) {
  ASSERT_EQ(a.trace.points.size(), b.trace.points.size());
  for (size_t k = 0; k < a.trace.points.size(); ++k) {
    SCOPED_TRACE(k);
    // Defaulted operator== covers every TracePoint field, including the
    // new availability/recovery series.
    EXPECT_TRUE(a.trace.points[k] == b.trace.points[k]);
  }
  EXPECT_EQ(a.report.access_failure_probability, b.report.access_failure_probability);
  EXPECT_EQ(a.report.mean_success_gap_days, b.report.mean_success_gap_days);
  EXPECT_EQ(a.report.successful_polls, b.report.successful_polls);
  EXPECT_EQ(a.report.inquorate_polls, b.report.inquorate_polls);
  EXPECT_EQ(a.report.alarms, b.report.alarms);
  EXPECT_EQ(a.report.repairs, b.report.repairs);
  EXPECT_EQ(a.report.loyal_effort_seconds, b.report.loyal_effort_seconds);
  EXPECT_EQ(a.report.adversary_effort_seconds, b.report.adversary_effort_seconds);
  EXPECT_EQ(a.polls_started, b.polls_started);
  EXPECT_EQ(a.solicitations_sent, b.solicitations_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.messages_filtered, b.messages_filtered);
  EXPECT_EQ(a.admission_verdicts, b.admission_verdicts);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.churn_departures, b.churn_departures);
  EXPECT_EQ(a.churn_recoveries, b.churn_recoveries);
  EXPECT_EQ(a.churn_arrivals, b.churn_arrivals);
  EXPECT_EQ(a.availability_mean, b.availability_mean);
  EXPECT_EQ(a.mean_recovery_days, b.mean_recovery_days);
  EXPECT_EQ(a.operator_interventions, b.operator_interventions);
}

experiment::ScenarioConfig dynamic_config(uint64_t seed) {
  experiment::ScenarioConfig config;
  config.peer_count = 12;
  config.au_count = 2;
  config.duration = sim::SimTime::days(400);
  config.seed = seed;
  config.trace_interval = sim::SimTime::days(30);
  config.churn.leave_rate_per_peer_year = 1.5;
  config.churn.crash_rate_per_peer_year = 0.7;
  config.churn.mean_downtime_days = 8.0;
  config.churn.arrival_rate_per_year = 3.0;
  return config;
}

TEST(DynamicsDeterminismTest, ChurnGridBitIdenticalAcross1And2And8Workers) {
  std::vector<experiment::ScenarioConfig> grid;
  for (uint64_t seed = 11; seed <= 12; ++seed) {
    grid.push_back(dynamic_config(seed));

    experiment::ScenarioConfig regional = dynamic_config(seed);
    regional.churn.regions = 3;
    regional.churn.regional_outage_rate_per_year = 3.0;
    regional.churn.regional_outage_days = 6.0;
    regional.churn.regional_recovery_stagger_hours = 12.0;
    regional.churn.regional_state_loss = true;
    grid.push_back(regional);

    experiment::ScenarioConfig attacked = dynamic_config(seed);
    attacked.adversary = {{.kind = adversary::PhaseKind::kBruteForce}};
    attacked.operators.detection_latency = sim::SimTime::days(2);
    attacked.operators.policies.push_back(
        {dynamics::OperatorTrigger::kAlarm, dynamics::OperatorAction::kAuRecrawl, 1.0});
    attacked.operators.policies.push_back(
        {dynamics::OperatorTrigger::kRecovery, dynamics::OperatorAction::kRekey, 1.0});
    attacked.operators.policies.push_back(
        {dynamics::OperatorTrigger::kAlarm, dynamics::OperatorAction::kRateTighten, 0.5});
    attacked.operators.policies.push_back(
        {dynamics::OperatorTrigger::kRecovery, dynamics::OperatorAction::kFriendRefresh, 1.0});
    grid.push_back(attacked);
  }

  const auto one = experiment::ParallelRunner(1).run(grid);
  const auto two = experiment::ParallelRunner(2).run(grid);
  const auto eight = experiment::ParallelRunner(8).run(grid);
  ASSERT_EQ(one.size(), grid.size());
  ASSERT_EQ(two.size(), grid.size());
  ASSERT_EQ(eight.size(), grid.size());
  // Guard against vacuous passes: churn, arrivals, and recoveries must have
  // actually happened, and the dynamic trace series must carry signal.
  EXPECT_GT(one[0].churn_departures, 0u);
  EXPECT_GT(one[0].churn_recoveries, 0u);
  EXPECT_GT(one[0].churn_arrivals, 0u);
  EXPECT_LT(one[0].availability_mean, 1.0);
  ASSERT_TRUE(one[0].trace.enabled());
  EXPECT_GT(one[0].trace.points.back().departures, 0u);
  EXPECT_GT(one[1].churn_departures, 0u);  // regional outages fired
  for (size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(one[i], two[i]);
    expect_identical(one[i], eight[i]);
  }
}

TEST(DynamicsDeterminismTest, StaticConfigUnaffectedByDynamicsPlumbing) {
  // A config with dynamics disabled takes no dynamics RNG splits: the run
  // must be bit-identical to itself across worker counts *and* produce
  // default dynamics accounting.
  experiment::ScenarioConfig config;
  config.peer_count = 12;
  config.au_count = 2;
  config.duration = sim::SimTime::days(200);
  config.seed = 3;
  const experiment::RunResult r = experiment::run_scenario(config);
  EXPECT_EQ(r.churn_departures, 0u);
  EXPECT_EQ(r.churn_recoveries, 0u);
  EXPECT_EQ(r.churn_arrivals, 0u);
  EXPECT_EQ(r.availability_mean, 1.0);
  EXPECT_EQ(r.mean_recovery_days, 0.0);
  for (uint64_t n : r.operator_interventions) {
    EXPECT_EQ(n, 0u);
  }
}

}  // namespace
}  // namespace lockss
