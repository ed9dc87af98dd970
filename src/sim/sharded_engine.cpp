#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <cassert>

namespace lockss::sim {

namespace {
// Executing context of the current OS thread, engine-scoped: worker threads
// belong to exactly one engine; every other thread (the coordinator, outer
// ParallelRunner workers) is the global context of whatever engine asks.
thread_local const ShardedEngine* tls_engine = nullptr;
thread_local uint32_t tls_context = ShardPlan::kGlobalContext;

struct ContextScope {
  const ShardedEngine* prev_engine;
  uint32_t prev_context;
  ContextScope(const ShardedEngine* engine, uint32_t context)
      : prev_engine(tls_engine), prev_context(tls_context) {
    tls_engine = engine;
    tls_context = context;
  }
  ~ContextScope() {
    tls_engine = prev_engine;
    tls_context = prev_context;
  }
};
}  // namespace

ShardedEngine::ShardedEngine(ShardPlan plan, SimTime lookahead)
    : plan_(plan), lookahead_(lookahead) {
  assert(lookahead_ > SimTime::zero() &&
         "sharding needs a positive lookahead (minimum cross-context delay)");
  shards_.resize(plan_.shards);
  for (Shard& shard : shards_) {
    shard.sim = std::make_unique<Simulator>();
  }
  active_.assign(plan_.shards, 0);
  if (plan_.shards > 1) {
    threads_.reserve(plan_.shards);
    for (uint32_t s = 0; s < plan_.shards; ++s) {
      threads_.emplace_back([this, s] { worker_loop(s); });
    }
  }
}

ShardedEngine::~ShardedEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

uint32_t ShardedEngine::current_context() const {
  return tls_engine == this ? tls_context : ShardPlan::kGlobalContext;
}

void ShardedEngine::post(uint32_t dst_context, SimTime at, EventFn fn) {
  const uint32_t src = current_context();
  if (src == dst_context || src == ShardPlan::kGlobalContext) {
    // Same-context, or the coordinator posting while every shard is
    // quiescent: a direct push is already deterministic.
    sim_for_context(dst_context).schedule_at(at, std::move(fn));
    return;
  }
  shards_[src].outbox.push_back(PostedEvent{at, dst_context, std::move(fn)});
}

void ShardedEngine::add_barrier_hook(std::function<void()> hook) {
  hooks_.push_back(std::move(hook));
}

void ShardedEngine::merge_outboxes() {
  // Gather in source order, then a stable sort by time: the resulting order
  // is (at, source context, post order) — a total order over all posts, so
  // destination-queue insertion order (and with it tie-breaking sequence
  // numbers) is independent of which thread finished first.
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.outbox.size();
  }
  if (total == 0) {
    return;
  }
  std::vector<PostedEvent> merged;
  merged.reserve(total);
  for (Shard& shard : shards_) {
    for (PostedEvent& e : shard.outbox) {
      merged.push_back(std::move(e));
    }
    shard.outbox.clear();
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const PostedEvent& a, const PostedEvent& b) { return a.at < b.at; });
  for (PostedEvent& e : merged) {
    // schedule_at asserts at >= the destination clock — exactly the
    // lookahead contract (posts land at or beyond the barrier time).
    sim_for_context(e.dst).schedule_at(e.at, std::move(e.fn));
  }
}

void ShardedEngine::run_barrier_hooks() {
  for (const std::function<void()>& hook : hooks_) {
    hook();
  }
}

void ShardedEngine::dispatch_window(SimTime w_end) {
  // Shards with no event before the window end have nothing to execute;
  // advancing their clock inline is free and skips the thread wake-up. With
  // sparse queues most windows have exactly one active shard, which then
  // runs inline on the coordinator too.
  const obs::Stopwatch window_watch;
  double stall_seconds = 0.0;
  uint32_t active_count = 0;
  uint32_t last_active = 0;
  for (uint32_t s = 0; s < plan_.shards; ++s) {
    shards_[s].runs = shards_[s].sim->next_event_time() < w_end;
    if (shards_[s].runs) {
      ++active_count;
      last_active = s;
    }
  }
  const bool parallel = active_count > 1 && !threads_.empty();
  if (parallel) {
    // Publish the window to the workers together with its epoch, under the
    // lock. active_ changes only with an epoch bump, so a worker whose
    // wake-up from an earlier epoch is still pending can never mistake a
    // later single-shard window (run inline below, on the coordinator) for
    // work of its own.
    std::lock_guard<std::mutex> lock(mu_);
    for (uint32_t s = 0; s < plan_.shards; ++s) {
      active_[s] = shards_[s].runs ? 1 : 0;
    }
    window_end_ = w_end;
    remaining_ = active_count;
    ++epoch_;
  }
  // Reporting only — a detached profile costs one branch per window.
  const auto record_window = [&] {
    if (profile_ == nullptr) {
      return;
    }
    ++profile_->windows;
    const size_t bucket = std::min<size_t>(
        active_count, obs::EngineProfile::kOccupancyBuckets - 1);
    ++profile_->occupancy[bucket];
    profile_->window_exec_seconds += window_watch.elapsed_seconds() - stall_seconds;
    profile_->barrier_stall_seconds += stall_seconds;
  };
  if (parallel) {
    cv_work_.notify_all();
    for (uint32_t s = 0; s < plan_.shards; ++s) {
      if (!shards_[s].runs) {
        shards_[s].sim->run_until(w_end);
      }
    }
    const obs::Stopwatch stall_watch;
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return remaining_ == 0; });
    stall_seconds = stall_watch.elapsed_seconds();
    record_window();
    return;
  }
  for (uint32_t s = 0; s < plan_.shards; ++s) {
    if (shards_[s].runs && s == last_active) {
      ContextScope scope(this, s);
      shards_[s].sim->run_until(w_end);
    } else {
      shards_[s].sim->run_until(w_end);
    }
  }
  record_window();
}

void ShardedEngine::worker_loop(uint32_t shard) {
  ContextScope scope(this, shard);
  uint64_t seen_epoch = 0;
  for (;;) {
    SimTime w_end;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return shutdown_ || (epoch_ != seen_epoch && active_[shard]); });
      if (shutdown_) {
        return;
      }
      seen_epoch = epoch_;
      w_end = window_end_;
    }
    shards_[shard].sim->run_until(w_end);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--remaining_ == 0) {
        cv_done_.notify_all();
      }
    }
  }
}

void ShardedEngine::run_until(SimTime horizon) {
  for (;;) {
    const obs::Stopwatch barrier_watch;
    merge_outboxes();
    run_barrier_hooks();
    if (profile_ != nullptr) {
      ++profile_->barriers;
      profile_->barrier_stall_seconds += barrier_watch.elapsed_seconds();
    }

    SimTime t_shard = SimTime::max();
    for (Shard& shard : shards_) {
      t_shard = std::min(t_shard, shard.sim->next_event_time());
    }
    const SimTime t_global = global_.next_event_time();
    if (std::min(t_shard, t_global) >= horizon) {
      break;
    }
    if (t_global <= t_shard) {
      // Global events run with every shard quiesced at exactly their time.
      // At an exact tie the global event runs first (serial ties are broken
      // by scheduling order, unreproducible across queues; continuous-time
      // delay draws make cross-context ties measure-zero in practice — the
      // golden corpus enforces this empirically).
      for (Shard& shard : shards_) {
        assert(shard.sim->next_event_time() >= t_global);
        shard.sim->run_until(t_global);
      }
      global_.run_at(t_global);
      continue;
    }
    SimTime w_end = t_shard + lookahead_;  // saturating
    w_end = std::min(w_end, t_global);
    w_end = std::min(w_end, horizon);
    dispatch_window(w_end);
    if (global_.now() < w_end) {
      global_.run_until(w_end);  // clock only: no global event before w_end
    }
  }
  for (Shard& shard : shards_) {
    shard.sim->run_until(horizon);
  }
  if (global_.now() < horizon) {
    global_.run_until(horizon);
  }
  // Posts from the final window target times at or past the horizon; merge
  // them anyway so their callables are owned by the queues (and run if a
  // caller extends the horizon later), then give hooks a final drain.
  merge_outboxes();
  run_barrier_hooks();
}

uint64_t ShardedEngine::events_processed() const {
  uint64_t total = global_.events_processed();
  for (const Shard& shard : shards_) {
    total += shard.sim->events_processed();
  }
  return total;
}

uint64_t ShardedEngine::peak_queue_depth_sum() const {
  uint64_t total = global_.peak_queue_depth();
  for (const Shard& shard : shards_) {
    total += shard.sim->peak_queue_depth();
  }
  return total;
}

}  // namespace lockss::sim
