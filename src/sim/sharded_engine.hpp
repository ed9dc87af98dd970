// Deterministic intra-run sharding: one deployment's event load split
// across worker threads, byte-identical to the serial run.
//
// Conservative parallel discrete-event simulation with a lookahead window
// (docs/sharding.md). Each shard owns a contiguous NodeId block (ShardPlan)
// and runs those peers' events on its own Simulator; global actors — the
// adversary fleet and its minions, the churn model, the operator-response
// engine, trace ticks — run on a separate global Simulator driven by the
// coordinator with every shard quiesced. The engine alternates:
//
//   1. Barrier: merge cross-context event posts (ordered by
//      (time, source context, post order) — a total order, so queue
//      insertion order is deterministic), then run the registered barrier
//      hooks (metric-log replay, deferred operator observations).
//   2. If the next global event is due no later than the earliest shard
//      event, quiesce every shard to that instant and run the global events
//      there ("global-first" at exact ties).
//   3. Otherwise open the window [t_min, W_end) with
//      W_end = min(t_min + lookahead, next global event, horizon) and run
//      every shard to W_end in parallel.
//
// Correctness of the window: `lookahead` is a strict lower bound on the
// delay of any cross-context interaction (the network's minimum latency —
// delivery takes latency + transfer > min latency), so no event inside a
// window can affect another context within the same window; cross-context
// posts always land at or after W_end and are merged at the barrier.
//
// Determinism: peers own all their state (RNG, sessions, schedule, damage
// process, effort meters, substrates), so per-shard execution order equals
// the serial order restricted to that shard. Cross-shard interleaving is
// made deterministic by the merge key; shared floating-point accumulators
// are not updated concurrently at all but replayed through per-shard logs
// in serial order (metrics::MetricLog). The one surrendered diagnostic is
// peak_queue_depth: a per-queue high-water mark has no serial equivalent,
// so the engine reports the sum of per-queue peaks (an upper bound).
#ifndef LOCKSS_SIM_SHARDED_ENGINE_HPP_
#define LOCKSS_SIM_SHARDED_ENGINE_HPP_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/profile.hpp"
#include "sim/shard_plan.hpp"
#include "sim/simulator.hpp"

namespace lockss::sim {

class ShardedEngine {
 public:
  // `lookahead` must be a strict lower bound on every cross-context
  // interaction delay (> 0).
  ShardedEngine(ShardPlan plan, SimTime lookahead);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  const ShardPlan& plan() const { return plan_; }

  Simulator& global_sim() { return global_; }
  Simulator& shard_sim(uint32_t shard) { return *shards_[shard].sim; }
  // Owning context's simulator for a raw NodeId value.
  Simulator& sim_of(uint32_t raw_id) { return sim_for_context(plan_.context_of(raw_id)); }
  uint32_t context_of(uint32_t raw_id) const { return plan_.context_of(raw_id); }

  // Executing context of the calling thread: a shard index inside a window,
  // ShardPlan::kGlobalContext on the coordinator (setup, barriers, global
  // events).
  uint32_t current_context() const;
  Simulator& current_sim() { return sim_for_context(current_context()); }

  // Schedules `fn` at absolute time `at` on `dst_context`'s queue. Same-
  // context posts (and any post made by the coordinator, which only runs
  // while shards are quiescent) schedule directly — identical to the serial
  // path. Cross-context posts from a shard are buffered in that shard's
  // outbox and merged at the next barrier in (at, source, order) order;
  // `at` must be at or beyond the window end (guaranteed by the lookahead
  // contract, asserted at merge time by Simulator::schedule_at).
  void post(uint32_t dst_context, SimTime at, EventFn fn);

  // Runs at every barrier on the coordinator thread, with all shards
  // quiescent, before any global event executes. Hooks must be cheap when
  // idle: with dense queues there is a barrier roughly every lookahead of
  // simulated time.
  void add_barrier_hook(std::function<void()> hook);

  // Drives the whole system to `horizon` (events at the horizon do not
  // run), exactly like Simulator::run_until on the serial path.
  void run_until(SimTime horizon);

  // Attaches (or clears, with nullptr) a wall-clock profile the engine fills
  // while running: windows/barriers counted, shard execution vs barrier
  // stall timed, window occupancy histogrammed (docs/observability.md). The
  // profile is reporting only — it never influences execution — and must
  // outlive the engine's run. Detached (the default) the cost is a branch
  // and a steady-clock sample per window.
  void set_profile(obs::EngineProfile* profile) { profile_ = profile; }

  // Sum over all queues (shards + global); equals the serial count.
  uint64_t events_processed() const;
  // Sum of per-queue high-water marks: an upper bound on the serial peak,
  // NOT comparable across shard counts (see docs/sharding.md).
  uint64_t peak_queue_depth_sum() const;

 private:
  struct PostedEvent {
    SimTime at;
    uint32_t dst;
    EventFn fn;
  };
  struct Shard {
    std::unique_ptr<Simulator> sim;
    // Cross-context posts made by this shard's window execution; single
    // writer (the shard), drained by the coordinator at the barrier.
    std::vector<PostedEvent> outbox;
    // Whether the current window has events for this shard; coordinator
    // only (workers read the published copy in active_).
    bool runs = false;
  };

  Simulator& sim_for_context(uint32_t context) {
    return context == ShardPlan::kGlobalContext ? global_ : *shards_[context].sim;
  }
  void merge_outboxes();
  void run_barrier_hooks();
  // Parallel shard execution to `w_end`; shards with no event before the
  // window end only advance their clock and are not dispatched to workers.
  void dispatch_window(SimTime w_end);
  void worker_loop(uint32_t shard);

  ShardPlan plan_;
  SimTime lookahead_;
  Simulator global_;
  std::vector<Shard> shards_;
  std::vector<std::function<void()>> hooks_;
  obs::EngineProfile* profile_ = nullptr;

  // Worker pool: one thread per shard, woken per window by epoch bump.
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  uint64_t epoch_ = 0;
  SimTime window_end_;
  std::vector<uint8_t> active_;  // per shard: run epoch_'s window?
  uint32_t remaining_ = 0;
  bool shutdown_ = false;
};

}  // namespace lockss::sim

#endif  // LOCKSS_SIM_SHARDED_ENGINE_HPP_
