#include "task/executor.hpp"

#include "common/assert.hpp"
#include "common/log.hpp"
#include "trace/counters.hpp"
#include "trace/trace.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace tahoe::task {

namespace {

/// Single-writer counter bump, readable concurrently. atomic_ref keeps the
/// stats structs plain aggregates while making cross-thread snapshots
/// race-free; the owner-only load+store pair compiles to a plain add (no
/// lock prefix), unlike fetch_add.
void bump(std::uint64_t& counter, std::uint64_t delta = 1) noexcept {
  const std::atomic_ref<std::uint64_t> ref(counter);
  ref.store(ref.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
}

std::uint64_t peek(const std::uint64_t& counter) noexcept {
  // atomic_ref<const T> support is spotty in C++20 libraries; the cast is
  // sound because the ref is only ever used to load.
  return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(counter))
      .load(std::memory_order_relaxed);
}

ExecutorStats snapshot_stats(const ExecutorStats& s) noexcept {
  ExecutorStats out;
  out.tasks_run = peek(s.tasks_run);
  out.pushes = peek(s.pushes);
  out.pops = peek(s.pops);
  out.steals = peek(s.steals);
  out.inject_takes = peek(s.inject_takes);
  out.failed_steals = peek(s.failed_steals);
  out.parks = peek(s.parks);
  out.cold_takes = peek(s.cold_takes);
  return out;
}

void accumulate_stats(ExecutorStats& into, const ExecutorStats& s) noexcept {
  into.tasks_run += s.tasks_run;
  into.pushes += s.pushes;
  into.pops += s.pops;
  into.steals += s.steals;
  into.inject_takes += s.inject_takes;
  into.failed_steals += s.failed_steals;
  into.parks += s.parks;
  into.cold_takes += s.cold_takes;
}

void subtract_stats(ExecutorStats& from, const ExecutorStats& s) noexcept {
  from.tasks_run -= s.tasks_run;
  from.pushes -= s.pushes;
  from.pops -= s.pops;
  from.steals -= s.steals;
  from.inject_takes -= s.inject_takes;
  from.failed_steals -= s.failed_steals;
  from.parks -= s.parks;
  from.cold_takes -= s.cold_takes;
}

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// Exponential backoff: short pause bursts first, then scheduler yields.
void backoff(int round) noexcept {
  if (round < 3) {
    for (int i = 0; i < (1 << round); ++i) cpu_relax();
  } else {
    std::this_thread::yield();
  }
}

/// Idle rescans before a worker parks; backoff doubles each round.
constexpr int kSpinRounds = 6;

}  // namespace

Executor::Executor(unsigned num_workers) : num_workers_(num_workers) {
  TAHOE_REQUIRE(num_workers >= 1, "executor needs at least one worker");
  inject_slot_pushes_.assign(num_workers, 0);
  worker_state_.reserve(num_workers);
  inject_hot_.reserve(num_workers);
  inject_cold_.reserve(num_workers);
  for (unsigned w = 0; w < num_workers; ++w) {
    // Deterministic per-worker seeds: only the victim rotation uses them.
    worker_state_.push_back(std::make_unique<WorkerState>(0x7a40e + w));
    inject_hot_.push_back(std::make_unique<WsDeque<TaskId>>());
    inject_cold_.push_back(std::make_unique<WsDeque<TaskId>>());
  }
  workers_.reserve(num_workers);
  for (unsigned w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
  if (trace::global().enabled()) {
    for (unsigned w = 0; w < num_workers; ++w) {
      trace::global().set_track_name(w, "worker " + std::to_string(w));
    }
  }
}

Executor::~Executor() {
  // Single ownership: destroying the executor while another thread is
  // inside run() races the graph state. Warn loudly (throwing from a
  // destructor would terminate) and still drain what we can.
  if (run_active_.load(std::memory_order_acquire)) {
    TAHOE_WARN("Executor destroyed while run() is in flight — the executor "
               "must be owned (and outlived) by its running thread");
  }
  // The seq_cst store orders before the eventcount epoch bump inside
  // notify(), so a worker that re-verifies emptiness before blocking
  // either sees stop_ set or gets the epoch-change wakeup — parked workers
  // drain deterministically.
  stop_.store(true, std::memory_order_seq_cst);
  park_.notify();
  for (std::thread& t : workers_) t.join();
}

ExecutorStats Executor::worker_stats(unsigned w) const {
  TAHOE_REQUIRE(w < num_workers_, "worker index out of range");
  return worker_snapshot(w);
}

ExecutorStats Executor::worker_snapshot(unsigned w) const {
  return snapshot_stats(worker_state_[w]->stats);
}

void Executor::push_ready(TaskId id, unsigned self) {
  WorkerState& ws = *worker_state_[self];
  (cold_hint(id) ? ws.cold : ws.hot).push(id);
  bump(ws.stats.pushes);
  park_.notify();
}

void Executor::inject_ready(TaskId id, unsigned slot) {
  auto& lane = cold_hint(id) ? inject_cold_ : inject_hot_;
  lane[slot]->push(id);
  park_.notify();
}

bool Executor::try_get_task(unsigned self, TaskId& out) {
  WorkerState& ws = *worker_state_[self];
  // 1. Own hot deque (LIFO for locality).
  if (ws.hot.pop(out)) {
    bump(ws.stats.pops);
    return true;
  }
  // 2. Own injection slot: group activations scattered to this worker.
  if (inject_hot_[self]->steal(out)) {
    bump(ws.stats.inject_takes);
    return true;
  }
  // 3. Steal hot work from the others, randomized rotation. DRAM-resident
  // work anywhere beats NVM-bound work here: cold deques are only
  // consulted after the whole hot scan failed.
  const unsigned n = num_workers_;
  const unsigned start = n > 1 ? static_cast<unsigned>(ws.rng.next_below(n)) : 0;
  for (unsigned k = 0; k < n; ++k) {
    const unsigned v = (start + k) % n;
    if (v == self) continue;
    if (worker_state_[v]->hot.steal(out)) {
      bump(ws.stats.steals);
      trace::Tracer& tracer = trace::global();
      if (tracer.enabled()) {
        tracer.instant(self, "steal", trace::now_seconds(), "victim", v);
      }
      return true;
    }
    if (inject_hot_[v]->steal(out)) {
      bump(ws.stats.inject_takes);
      return true;
    }
  }
  // 4. Cold (NVM-bound) work, same order: own, own injection, then steal.
  if (ws.cold.pop(out)) {
    bump(ws.stats.pops);
    bump(ws.stats.cold_takes);
    return true;
  }
  if (inject_cold_[self]->steal(out)) {
    bump(ws.stats.inject_takes);
    bump(ws.stats.cold_takes);
    return true;
  }
  for (unsigned k = 0; k < n; ++k) {
    const unsigned v = (start + k) % n;
    if (v == self) continue;
    if (worker_state_[v]->cold.steal(out)) {
      bump(ws.stats.steals);
      bump(ws.stats.cold_takes);
      return true;
    }
    if (inject_cold_[v]->steal(out)) {
      bump(ws.stats.inject_takes);
      bump(ws.stats.cold_takes);
      return true;
    }
  }
  // A "failed steal" requires an actual victim scan: with one worker there
  // are no victims, so an empty round is just an idle spin, not a steal
  // that failed (counting those inflated executor.steals_failed on
  // single-worker runs).
  if (n > 1) bump(ws.stats.failed_steals);
  return false;
}

bool Executor::any_work_visible() const {
  for (unsigned w = 0; w < num_workers_; ++w) {
    if (!worker_state_[w]->hot.empty_approx()) return true;
    if (!worker_state_[w]->cold.empty_approx()) return true;
    if (!inject_hot_[w]->empty_approx()) return true;
    if (!inject_cold_[w]->empty_approx()) return true;
  }
  return false;
}

void Executor::worker_loop(unsigned self) {
  WorkerState& ws = *worker_state_[self];
  int idle_rounds = 0;
  // Work-hunt latency: first failed acquisition attempt -> next success.
  // Negative = not hunting. Only measured when histograms are on, so the
  // idle spin path stays clock-free by default.
  double hunt_begin = -1.0;
  for (;;) {
    TaskId id = 0;
    if (try_get_task(self, id)) {
      if (hunt_begin >= 0.0) {
        static trace::Histogram& steal_latency =
            trace::global_counters().histogram(
                "executor.steal_latency_seconds");
        steal_latency.record_seconds(trace::now_seconds() - hunt_begin);
        hunt_begin = -1.0;
      }
      idle_rounds = 0;
      // Count before executing: execute_task's barrier decrement is what
      // releases run()'s stats aggregation, so a bump after it could be
      // missed by the snapshot of the run that this task completes.
      bump(ws.stats.tasks_run);
      execute_task(id, self);
      continue;
    }
    if (hunt_begin < 0.0 && trace::histograms_enabled()) {
      hunt_begin = trace::now_seconds();
    }
    if (stop_.load(std::memory_order_acquire)) return;
    if (idle_rounds < kSpinRounds) {
      backoff(idle_rounds++);
      continue;
    }
    idle_rounds = 0;
    // Park. prepare_wait() registers us as a waiter *before* the
    // emptiness re-check, so a push that lands in between is guaranteed
    // to bump the epoch and either abort the commit or wake us.
    const std::uint64_t epoch = park_.prepare_wait();
    if (stop_.load(std::memory_order_acquire) || any_work_visible()) {
      park_.cancel_wait();
      continue;
    }
    bump(ws.stats.parks);
    if (trace::histograms_enabled()) {
      const double park_begin = trace::now_seconds();
      park_.commit_wait(epoch);
      static trace::Histogram& park_seconds =
          trace::global_counters().histogram("executor.park_seconds");
      park_seconds.record_seconds(trace::now_seconds() - park_begin);
    } else {
      park_.commit_wait(epoch);
    }
  }
}

void Executor::execute_task(TaskId id, unsigned self) {
  const Task& t = graph_->task(id);
  trace::Tracer& tracer = trace::global();
  const bool traced = tracer.enabled();
  const bool hist = trace::histograms_enabled();
  const double begin = (traced || hist) ? trace::now_seconds() : 0.0;
  if (t.work) {
    try {
      t.work();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
  if (traced || hist) {
    const double dur = trace::now_seconds() - begin;
    if (traced) {
      tracer.complete(self, t.label.empty() ? "task" : t.label.c_str(), begin,
                      dur, "task", id, "group", t.group);
    }
    if (hist) {
      static trace::Histogram& task_seconds =
          trace::global_counters().histogram("executor.task_seconds");
      task_seconds.record_seconds(dur);
    }
  }
  // Completion: release successors. Every task starts with an extra
  // "activation token" on top of its predecessor count (see run()), so a
  // task is pushed exactly once — by whichever decrement (the last
  // predecessor or its group's activation) brings the counter to zero.
  // This avoids the double-release race between the activation scan and
  // concurrent completions.
  for (TaskId succ : graph_->successors(id)) {
    if (pending_preds_[succ].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      push_ready(succ, self);
    }
  }
  // remaining_ strictly before the barrier count, and run() waits on the
  // barrier alone (both modes): once it drains, every finished task's
  // remaining_ decrement has landed, so the caller never sees a drained
  // barrier with tasks outstanding, and no decrement of this run can land
  // after the next run's counter stores.
  remaining_.fetch_sub(1, std::memory_order_acq_rel);
  if (barrier_remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      // Empty critical section pairs with run()'s predicate check under
      // done_mutex_ so the notify cannot be lost.
      const std::lock_guard<std::mutex> lock(done_mutex_);
    }
    done_cv_.notify_all();
  }
}

void Executor::flush_stats_to_counters(const ExecutorStats& delta) const {
  trace::CounterRegistry& reg = trace::global_counters();
  reg.get("executor.tasks").add(delta.tasks_run);
  reg.get("executor.pushes").add(delta.pushes);
  reg.get("executor.pops").add(delta.pops);
  reg.get("executor.steals").add(delta.steals);
  reg.get("executor.inject_takes").add(delta.inject_takes);
  reg.get("executor.steals_failed").add(delta.failed_steals);
  reg.get("executor.parks").add(delta.parks);
  reg.get("executor.cold_takes").add(delta.cold_takes);
}

void Executor::run(const TaskGraph& graph,
                   const std::function<void(GroupId)>& on_group_start,
                   std::span<const TierHint> tier_hints) {
  const std::lock_guard<std::mutex> run_lock(run_mutex_);
  TAHOE_REQUIRE(graph.num_tasks() > 0, "empty graph");
  TAHOE_REQUIRE(tier_hints.empty() || tier_hints.size() == graph.num_tasks(),
                "tier_hints must be empty or have one entry per task");
  run_active_.store(true, std::memory_order_release);
  graph_ = &graph;
  hints_ = tier_hints.empty() ? nullptr : tier_hints.data();
  first_error_ = nullptr;

  const std::size_t n = graph.num_tasks();
  // (Re)build the pred counters, each holding one extra activation token.
  pending_preds_ = std::vector<std::atomic<std::uint32_t>>(n);
  for (TaskId id = 0; id < n; ++id) {
    pending_preds_[id].store(graph.num_predecessors(id) + 1,
                             std::memory_order_relaxed);
  }
  remaining_.store(static_cast<std::uint32_t>(n), std::memory_order_release);

  // Hand tasks their activation token; scatter the eligible ones
  // round-robin over the injection slots. The cursor is a member so the
  // rotation continues where the previous group (or run) left off.
  const auto activate = [this](TaskId id) {
    if (pending_preds_[id].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const unsigned slot = inject_cursor_;
      inject_cursor_ = (inject_cursor_ + 1) % num_workers_;
      ++caller_pushes_;
      ++inject_slot_pushes_[slot];
      inject_ready(id, slot);
    }
  };

  const bool phase_mode = static_cast<bool>(on_group_start);
  if (phase_mode) {
    // Sequential phases: activate one group at a time.
    for (GroupId g = 0; g < graph.num_groups(); ++g) {
      const Group& grp = graph.group(g);
      on_group_start(g);
      barrier_remaining_.store(static_cast<std::uint32_t>(grp.size()),
                               std::memory_order_release);
      for (TaskId id = grp.first_task; id < grp.last_task; ++id) activate(id);
      // Wait for the group barrier.
      std::unique_lock<std::mutex> lock(done_mutex_);
      done_cv_.wait(lock, [this] {
        return barrier_remaining_.load(std::memory_order_acquire) == 0;
      });
    }
  } else {
    barrier_remaining_.store(static_cast<std::uint32_t>(n),
                             std::memory_order_release);
    for (TaskId id = 0; id < n; ++id) activate(id);
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [this] {
      return barrier_remaining_.load(std::memory_order_acquire) == 0;
    });
  }

  TAHOE_ASSERT(remaining_.load(std::memory_order_acquire) == 0,
               "run finished with tasks outstanding");
  // Refresh the aggregate stats and flush the delta since the previous
  // run into the global counter registry.
  ExecutorStats total;
  for (unsigned w = 0; w < num_workers_; ++w) {
    accumulate_stats(total, worker_snapshot(w));
  }
  total.pushes += caller_pushes_;
  ExecutorStats delta = total;
  subtract_stats(delta, reported_);
  flush_stats_to_counters(delta);
  reported_ = total;
  stats_ = total;
  graph_ = nullptr;
  hints_ = nullptr;
  run_active_.store(false, std::memory_order_release);
  if (first_error_) std::rethrow_exception(first_error_);
}

}  // namespace tahoe::task
