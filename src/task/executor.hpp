// Real (wall-clock) task-graph executor.
//
// Runs task functors on a pool of worker threads scheduled through
// per-worker Chase–Lev lock-free deques (ws_deque.hpp) with an
// eventcount-style parking protocol. This executor exists for
// *correctness*: examples and tests run real kernels through it (optionally
// interleaved with real migrations at group boundaries) and check numerical
// results. All reported *timings* in the benchmark harnesses come from the
// deterministic SimExecutor instead — see sim_executor.hpp.
//
// run() orchestration. Every task's predecessor counter holds one extra
// activation token, so a task is released exactly once — by whichever
// decrement (its last predecessor or its group's activation) reaches zero.
// With a group hook, groups run as sequential phases behind a barrier.
// The round-robin injection cursor persists across groups *and* runs.
//
// Scheduling layout. Every worker owns a *hot* and a *cold* lock-free
// deque; the run() caller owns one hot/cold *injection* deque per worker
// into which group activations are scattered round-robin (Chase–Lev push
// is owner-only, so the caller cannot push into a worker's own deque).
// Ready tasks land in a cold deque when the caller supplied tier hints and
// the task is NVM-bound (some input chunk not DRAM-resident under the
// current plan). Workers drain hot work first — own deque, own injection
// slot, then steal from the other hot deques in a randomized rotation —
// and only then fall back to cold work. That global hot-before-cold order
// is the executor-side half of the paper's migration/computation overlap:
// DRAM-resident tasks run while the helper thread is still promoting the
// objects the NVM-bound tasks will touch.
//
// Parking. An idle worker rescans with exponential backoff a few times,
// then registers as a waiter on the eventcount and re-verifies emptiness
// before blocking, so a concurrent push can never be lost. push_ready's
// hot path is one lock-free deque push plus one uncontended atomic
// bump-and-check — it never takes a mutex unless a worker is actually
// parked.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "task/graph.hpp"
#include "task/ws_deque.hpp"

namespace tahoe::task {

/// Per-task scheduling hint derived from planned data residency.
enum class TierHint : std::uint8_t {
  kHot = 0,   ///< inputs DRAM-resident (or unknown): run eagerly
  kCold = 1,  ///< inputs NVM-bound: defer while hot work exists
};

/// Scheduler counters. `stats()` returns the totals across all workers and
/// runs; `worker_stats(w)` the per-worker breakdown.
struct ExecutorStats {
  std::uint64_t tasks_run = 0;      ///< tasks executed
  std::uint64_t pushes = 0;         ///< ready-task enqueues
  std::uint64_t pops = 0;           ///< tasks taken from the worker's own deque
  std::uint64_t steals = 0;         ///< tasks obtained from another worker
  std::uint64_t inject_takes = 0;   ///< tasks taken from an injection lane
  std::uint64_t failed_steals = 0;  ///< full victim scans that found nothing
  std::uint64_t parks = 0;          ///< times a worker blocked on the eventcount
  std::uint64_t cold_takes = 0;     ///< NVM-hinted (deferred) tasks executed
};

/// Eventcount: lets producers skip the kernel entirely while no consumer is
/// parked. Consumers prepare_wait(), re-check their condition, then either
/// cancel_wait() or commit_wait(); producers notify() after publishing
/// work. The seq_cst epoch bump in notify() orders the producer's work
/// publication before its waiter check, closing the classic lost-wakeup
/// window without a mutex on the fast path.
class EventCount {
 public:
  std::uint64_t prepare_wait() noexcept {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    return epoch_.load(std::memory_order_seq_cst);
  }
  void cancel_wait() noexcept {
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }
  void commit_wait(std::uint64_t epoch) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this, epoch] {
      return epoch_.load(std::memory_order_seq_cst) != epoch;
    });
    lock.unlock();
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }
  void notify() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    {
      // Empty critical section: a waiter between its predicate check and
      // its block cannot miss the notify below.
      const std::lock_guard<std::mutex> lock(mutex_);
    }
    cv_.notify_all();
  }

 private:
  alignas(64) std::atomic<std::uint64_t> epoch_{0};
  alignas(64) std::atomic<std::uint64_t> waiters_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

class Executor final {
 public:
  explicit Executor(unsigned num_workers);

  /// Joins the pool. The caller must guarantee no run() is in flight
  /// (single ownership); this is checked and reported as a contract
  /// violation. Parked workers are woken and drained deterministically.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Execute every task in the graph respecting dependences. Blocks until
  /// done. `on_group_start`, if provided, is invoked (on the caller
  /// thread, with no tasks of that or later groups running yet) right
  /// before the first task of each group becomes eligible — the hook the
  /// runtime uses to enforce placement at phase boundaries. When the hook
  /// is set, groups are executed as sequential phases (tasks of group g+1
  /// wait for group g), matching the paper's phase semantics; without it
  /// the DAG runs with maximum overlap.
  ///
  /// `tier_hints`, when non-empty, must have one entry per task; kCold
  /// tasks are deferred while any hot work remains. Hints only affect
  /// scheduling order among *ready* tasks — dependences and phase
  /// barriers are always respected.
  void run(const TaskGraph& graph,
           const std::function<void(GroupId)>& on_group_start = {},
           std::span<const TierHint> tier_hints = {});

  unsigned num_workers() const noexcept { return num_workers_; }
  const ExecutorStats& stats() const noexcept { return stats_; }
  /// Per-worker breakdown (totals across runs; snapshot). `w <
  /// num_workers()`.
  ExecutorStats worker_stats(unsigned w) const;
  /// How many group activations run() has scattered into each injection
  /// slot, per worker (caller-thread data, exact between runs). The
  /// round-robin cursor persists across groups and runs, so over many
  /// small groups the counts stay balanced — see the scatter-bias
  /// regression test.
  std::vector<std::uint64_t> injection_slot_pushes() const {
    return inject_slot_pushes_;
  }

 private:
  /// One worker's scheduling state, cacheline-isolated.
  struct alignas(64) WorkerState {
    explicit WorkerState(std::uint64_t seed) : rng(seed) {}
    WsDeque<TaskId> hot;
    WsDeque<TaskId> cold;
    Rng rng;             ///< victim-rotation randomization (owner-only)
    ExecutorStats stats; ///< owner-written; read by run() when quiescent
  };

  void worker_loop(unsigned self);
  /// Caller-thread activation handoff into the worker `slot`'s injection
  /// lane (hot or cold by `hints_`). Wakes a parked worker.
  void inject_ready(TaskId id, unsigned slot);
  /// Worker-thread handoff of a newly released successor. Wakes a parked
  /// worker.
  void push_ready(TaskId id, unsigned self);
  /// Owner-consistent snapshot of worker `w`'s counters.
  ExecutorStats worker_snapshot(unsigned w) const;
  bool try_get_task(unsigned self, TaskId& out);
  bool any_work_visible() const;
  /// Runs the task body (tracing + error capture), releases successors via
  /// push_ready, and signals the group barrier / run completion. Does NOT
  /// bump tasks_run — the worker loop owns its stats.
  void execute_task(TaskId id, unsigned self);
  bool cold_hint(TaskId id) const noexcept {
    return hints_ != nullptr && hints_[id] == TierHint::kCold;
  }
  void flush_stats_to_counters(const ExecutorStats& delta) const;

  unsigned num_workers_ = 0;
  EventCount park_;  ///< idle workers sleep here; producers notify
  const TaskGraph* graph_ = nullptr;  ///< valid during run()
  const TierHint* hints_ = nullptr;   ///< valid during run(); may be null
  std::atomic<std::uint32_t> remaining_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> run_active_{false};
  std::vector<std::atomic<std::uint32_t>> pending_preds_;
  std::atomic<std::uint32_t> barrier_remaining_{0};  ///< tasks left in group
  std::mutex run_mutex_;   ///< one run() at a time
  std::mutex done_mutex_;  ///< run() completion wait (cold path)
  std::condition_variable done_cv_;
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
  /// Round-robin injection cursor. Deliberately NOT reset per group or per
  /// run: restarting at slot 0 for every group would pile the eligible
  /// tasks of many small groups onto workers 0..k (the scatter-bias bug
  /// this replaces).
  unsigned inject_cursor_ = 0;
  std::uint64_t caller_pushes_ = 0;  ///< injection pushes (caller thread)
  std::vector<std::uint64_t> inject_slot_pushes_;  ///< per-slot scatter tally
  ExecutorStats stats_;     ///< aggregate, refreshed after each run
  ExecutorStats reported_;  ///< totals already flushed to counters

  std::vector<std::unique_ptr<WorkerState>> worker_state_;
  /// Caller-owned activation deques, one hot/cold pair per worker.
  std::vector<std::unique_ptr<WsDeque<TaskId>>> inject_hot_;
  std::vector<std::unique_ptr<WsDeque<TaskId>>> inject_cold_;
  std::vector<std::thread> workers_;
};

// The three names below exist because the benchmark harness (perfbench/)
// spells them; there is one executor.

/// perfbench names `task::IExecutor`.
using IExecutor = Executor;

/// perfbench names `task::ExecutorBackend::kChaseLev`.
enum class ExecutorBackend : std::uint8_t { kChaseLev = 0 };

/// perfbench names `task::make_executor(backend, workers)`.
inline std::unique_ptr<Executor> make_executor(ExecutorBackend /*backend*/,
                                               unsigned num_workers) {
  return std::make_unique<Executor>(num_workers);
}

}  // namespace tahoe::task
