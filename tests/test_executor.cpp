// Real thread-pool executor: correctness under dependences and the
// phase-boundary hook, tier-hint ordering, injection scatter and the
// scheduler stats.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/runtime.hpp"
#include "task/executor.hpp"

namespace tahoe::task {
namespace {

DataAccess acc(hms::ObjectId obj, AccessMode mode) {
  DataAccess a;
  a.object = obj;
  a.mode = mode;
  a.traffic.loads = 1;
  a.traffic.footprint = 64;
  return a;
}

TEST(Executor, RunsEveryTaskOnce) {
  GraphBuilder gb;
  gb.begin_group("g");
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    Task t;
    t.accesses = {acc(static_cast<hms::ObjectId>(i), AccessMode::Write)};
    t.work = [&count]() { count.fetch_add(1, std::memory_order_relaxed); };
    gb.add_task(std::move(t));
  }
  const TaskGraph g = gb.build();
  Executor ex(4);
  ex.run(g);
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(ex.stats().tasks_run, 100u);
}

TEST(Executor, DependencesOrderEffects) {
  // Chain: each task appends its id; RAW deps force program order.
  GraphBuilder gb;
  gb.begin_group("g");
  std::vector<int> order;
  std::mutex m;
  for (int i = 0; i < 32; ++i) {
    Task t;
    t.accesses = {acc(1, AccessMode::ReadWrite)};  // serial chain
    t.work = [&order, &m, i]() {
      const std::lock_guard<std::mutex> lock(m);
      order.push_back(i);
    };
    gb.add_task(std::move(t));
  }
  const TaskGraph g = gb.build();
  Executor ex(4);
  ex.run(g);
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[i], i);
}

TEST(Executor, ForkJoinComputesCorrectSum) {
  // One producer writes, N parallel readers accumulate, one reducer reads.
  GraphBuilder gb;
  gb.begin_group("g");
  int shared_value = 0;
  std::atomic<long> sum{0};
  {
    Task t;
    t.accesses = {acc(1, AccessMode::Write)};
    t.work = [&shared_value]() { shared_value = 21; };
    gb.add_task(std::move(t));
  }
  for (int i = 0; i < 64; ++i) {
    Task t;
    t.accesses = {acc(1, AccessMode::Read),
                  acc(static_cast<hms::ObjectId>(100 + i), AccessMode::Write)};
    t.work = [&shared_value, &sum]() {
      sum.fetch_add(shared_value, std::memory_order_relaxed);
    };
    gb.add_task(std::move(t));
  }
  long result = 0;
  {
    Task t;
    t.accesses = {acc(1, AccessMode::Write)};
    t.work = [&result, &sum]() { result = sum.load(); };
    gb.add_task(std::move(t));
  }
  const TaskGraph g = gb.build();
  Executor ex(8);
  ex.run(g);
  EXPECT_EQ(result, 64L * 21L);
}

TEST(Executor, PhaseHookRunsBeforeEachGroup) {
  GraphBuilder gb;
  std::atomic<int> phase_marker{-1};
  std::vector<int> seen_by_group(3, -2);
  for (int gi = 0; gi < 3; ++gi) {
    gb.begin_group("g" + std::to_string(gi));
    for (int i = 0; i < 8; ++i) {
      Task t;
      t.accesses = {acc(static_cast<hms::ObjectId>(gi), AccessMode::ReadWrite)};
      t.work = [&phase_marker, &seen_by_group, gi]() {
        seen_by_group[gi] = phase_marker.load(std::memory_order_acquire);
      };
      gb.add_task(std::move(t));
    }
  }
  const TaskGraph g = gb.build();
  Executor ex(4);
  std::vector<GroupId> hook_order;
  ex.run(g, [&](GroupId gi) {
    hook_order.push_back(gi);
    phase_marker.store(static_cast<int>(gi), std::memory_order_release);
  });
  EXPECT_EQ(hook_order, (std::vector<GroupId>{0, 1, 2}));
  // Every task observed its own group's marker: the hook really ran before
  // the group and no task of a later group overlapped.
  for (int gi = 0; gi < 3; ++gi) EXPECT_EQ(seen_by_group[gi], gi);
}

TEST(Executor, ExceptionsPropagate) {
  GraphBuilder gb;
  gb.begin_group("g");
  Task t;
  t.accesses = {acc(1, AccessMode::Write)};
  t.work = []() { throw std::runtime_error("kernel failed"); };
  gb.add_task(std::move(t));
  const TaskGraph g = gb.build();
  Executor ex(2);
  EXPECT_THROW(ex.run(g), std::runtime_error);
}

// A task throwing mid-group in phase mode must not wedge the group
// barrier: the remaining tasks of its group and every later group still
// run, and run() rethrows the error once the whole graph drained.
TEST(Executor, PhaseModeExceptionReleasesBarrierAndRethrows) {
  GraphBuilder gb;
  std::atomic<int> completed{0};
  std::atomic<int> last_group_tasks{0};
  constexpr int kGroups = 3;
  constexpr int kPerGroup = 8;
  for (int gi = 0; gi < kGroups; ++gi) {
    gb.begin_group("g" + std::to_string(gi));
    for (int i = 0; i < kPerGroup; ++i) {
      Task t;
      t.accesses = {acc(static_cast<hms::ObjectId>(gi * 100 + i),
                        AccessMode::Write)};
      if (gi == 1 && i == 3) {
        t.work = []() { throw std::runtime_error("mid-group failure"); };
      } else {
        t.work = [&completed, &last_group_tasks, gi]() {
          completed.fetch_add(1, std::memory_order_relaxed);
          if (gi == kGroups - 1) {
            last_group_tasks.fetch_add(1, std::memory_order_relaxed);
          }
        };
      }
      gb.add_task(std::move(t));
    }
  }
  const TaskGraph g = gb.build();
  Executor ex(4);
  std::vector<GroupId> hook_order;
  EXPECT_THROW(
      ex.run(g, [&](GroupId gi) { hook_order.push_back(gi); }),
      std::runtime_error);
  // All groups were started and every non-throwing task ran to completion.
  EXPECT_EQ(hook_order, (std::vector<GroupId>{0, 1, 2}));
  EXPECT_EQ(completed.load(), kGroups * kPerGroup - 1);
  EXPECT_EQ(last_group_tasks.load(), kPerGroup);
  EXPECT_EQ(ex.stats().tasks_run,
            static_cast<std::uint64_t>(kGroups * kPerGroup));
}

// Back-to-back runs of small multi-group graphs, mostly in phase mode: a
// group barrier may only drain once every task of the group is fully
// retired, so run() never finishes with tasks outstanding and no
// completion of one run leaks into the next run's counters.
TEST(Executor, PhaseModeStressSmallGroups) {
  Executor ex(4);
  Rng rng(42);
  std::uint64_t total = 0;
  for (int round = 0; round < 3000; ++round) {
    GraphBuilder gb;
    std::atomic<int> ran{0};
    const std::size_t groups = 2 + rng.next_below(4);
    int tasks = 0;
    for (std::size_t gi = 0; gi < groups; ++gi) {
      gb.begin_group("g" + std::to_string(gi));
      const std::size_t per_group = 1 + rng.next_below(3);
      for (std::size_t i = 0; i < per_group; ++i) {
        Task t;
        t.accesses = {acc(static_cast<hms::ObjectId>(tasks++),
                          AccessMode::Write)};
        t.work = [&ran]() { ran.fetch_add(1, std::memory_order_relaxed); };
        gb.add_task(std::move(t));
      }
    }
    const TaskGraph g = gb.build();
    std::size_t started = 0;
    if (round % 4 == 3) {
      ASSERT_NO_THROW(ex.run(g)) << "round " << round;
    } else {
      ASSERT_NO_THROW(ex.run(g, [&started](GroupId) { ++started; }))
          << "round " << round;
      ASSERT_EQ(started, groups) << "round " << round;
    }
    ASSERT_EQ(ran.load(), tasks) << "round " << round;
    total += static_cast<std::uint64_t>(tasks);
  }
  EXPECT_EQ(ex.stats().tasks_run, total);
}

TEST(Executor, ReusableAcrossRuns) {
  Executor ex(3);
  for (int round = 0; round < 5; ++round) {
    GraphBuilder gb;
    gb.begin_group("g");
    std::atomic<int> n{0};
    for (int i = 0; i < 20; ++i) {
      Task t;
      t.accesses = {acc(static_cast<hms::ObjectId>(i), AccessMode::Write)};
      t.work = [&n]() { n.fetch_add(1); };
      gb.add_task(std::move(t));
    }
    const TaskGraph g = gb.build();
    ex.run(g);
    EXPECT_EQ(n.load(), 20);
  }
  EXPECT_EQ(ex.stats().tasks_run, 100u);
}

TEST(Executor, SingleWorkerIsSequential) {
  GraphBuilder gb;
  gb.begin_group("g");
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    Task t;
    t.accesses = {acc(static_cast<hms::ObjectId>(i), AccessMode::Write)};
    t.work = [&order, i]() { order.push_back(i); };
    gb.add_task(std::move(t));
  }
  const TaskGraph g = gb.build();
  Executor ex(1);
  ex.run(g);
  EXPECT_EQ(order.size(), 10u);
}

// Regression: a single-worker pool has no victims, so an empty acquisition
// round is an idle spin, not a failed steal. The counter used to be bumped
// on every such round, inflating executor.steals_failed by the number of
// idle spins between activations.
TEST(Executor, SingleWorkerReportsNoFailedSteals) {
  GraphBuilder gb;
  gb.begin_group("g");
  for (int i = 0; i < 16; ++i) {
    Task t;
    t.accesses = {acc(1, AccessMode::ReadWrite)};  // serial chain
    t.work = []() {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    };
    gb.add_task(std::move(t));
  }
  const TaskGraph g = gb.build();
  Executor ex(1);
  ex.run(g);
  EXPECT_EQ(ex.stats().tasks_run, 16u);
  EXPECT_EQ(ex.stats().failed_steals, 0u);
  EXPECT_EQ(ex.stats().steals, 0u);
}

TEST(Executor, RejectsBadConfig) {
  EXPECT_THROW(Executor(0), ContractError);
  Executor ex(1);
  GraphBuilder gb;
  gb.begin_group("empty");
  EXPECT_THROW(ex.run(gb.build()), ContractError);
}

TEST(Executor, RejectsMisSizedTierHints) {
  GraphBuilder gb;
  gb.begin_group("g");
  for (int i = 0; i < 4; ++i) {
    Task t;
    t.accesses = {acc(static_cast<hms::ObjectId>(i), AccessMode::Write)};
    t.work = [] {};
    gb.add_task(std::move(t));
  }
  const TaskGraph g = gb.build();
  Executor ex(2);
  const std::vector<TierHint> wrong(3, TierHint::kHot);
  EXPECT_THROW(ex.run(g, {}, wrong), ContractError);
}

TEST(Executor, StatsAccountForEveryTask) {
  GraphBuilder gb;
  gb.begin_group("g");
  std::atomic<int> count{0};
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    Task t;
    t.accesses = {acc(static_cast<hms::ObjectId>(i % 16),
                      i % 4 == 0 ? AccessMode::Write : AccessMode::Read)};
    t.work = [&count]() { count.fetch_add(1, std::memory_order_relaxed); };
    gb.add_task(std::move(t));
  }
  const TaskGraph g = gb.build();
  Executor ex(4);
  ex.run(g);
  EXPECT_EQ(count.load(), kTasks);
  const ExecutorStats& s = ex.stats();
  EXPECT_EQ(s.tasks_run, static_cast<std::uint64_t>(kTasks));
  // Every task was enqueued once and taken for execution exactly once.
  EXPECT_EQ(s.pops + s.steals + s.inject_takes,
            static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(s.pushes, static_cast<std::uint64_t>(kTasks));
  // The per-worker breakdown adds up to the aggregate.
  std::uint64_t per_worker_tasks = 0;
  for (unsigned w = 0; w < ex.num_workers(); ++w) {
    per_worker_tasks += ex.worker_stats(w).tasks_run;
  }
  EXPECT_EQ(per_worker_tasks, s.tasks_run);
}

TEST(Executor, ColdHintedTasksAllRunAndAreCounted) {
  GraphBuilder gb;
  gb.begin_group("g");
  std::atomic<int> count{0};
  constexpr int kTasks = 64;
  std::vector<TierHint> hints;
  for (int i = 0; i < kTasks; ++i) {
    Task t;
    t.accesses = {acc(static_cast<hms::ObjectId>(i), AccessMode::Write)};
    t.work = [&count]() { count.fetch_add(1, std::memory_order_relaxed); };
    gb.add_task(std::move(t));
    hints.push_back(i % 2 == 0 ? TierHint::kCold : TierHint::kHot);
  }
  const TaskGraph g = gb.build();
  Executor ex(4);
  ex.run(g, {}, hints);
  EXPECT_EQ(count.load(), kTasks);
  EXPECT_EQ(ex.stats().cold_takes, static_cast<std::uint64_t>(kTasks / 2));
}

TEST(Executor, SingleWorkerRunsHotTasksBeforeColdOnes) {
  // A head task fans out to 8 hot + 8 cold successors. With one worker all
  // successors are enqueued by that worker when the head completes, so the
  // hot-before-cold scheduling order is deterministic.
  GraphBuilder gb;
  gb.begin_group("g");
  std::vector<TierHint> hints;
  std::vector<int> order;
  {
    Task head;
    head.accesses = {acc(0, AccessMode::Write)};
    head.work = [] {};
    gb.add_task(std::move(head));
    hints.push_back(TierHint::kHot);
  }
  for (int i = 0; i < 16; ++i) {
    Task t;
    t.accesses = {acc(0, AccessMode::Read),
                  acc(static_cast<hms::ObjectId>(10 + i), AccessMode::Write)};
    t.work = [&order, i]() { order.push_back(i); };
    gb.add_task(std::move(t));
    hints.push_back(i % 2 == 0 ? TierHint::kHot : TierHint::kCold);
  }
  const TaskGraph g = gb.build();
  Executor ex(1);
  ex.run(g, {}, hints);
  ASSERT_EQ(order.size(), 16u);
  // The 8 hot successors (even i) all execute before any cold one.
  for (int pos = 0; pos < 8; ++pos) {
    EXPECT_EQ(order[pos] % 2, 0) << "cold task ran at position " << pos;
  }
}

TEST(Executor, PhaseModeWithHintsKeepsBarrierSemantics) {
  GraphBuilder gb;
  std::atomic<int> running{0};
  std::vector<TierHint> hints;
  std::atomic<int> current_group{-1};
  std::atomic<bool> violation{false};
  for (int gi = 0; gi < 3; ++gi) {
    gb.begin_group("g" + std::to_string(gi));
    for (int i = 0; i < 12; ++i) {
      Task t;
      t.accesses = {acc(static_cast<hms::ObjectId>(gi * 100 + i),
                        AccessMode::Write)};
      t.work = [&, gi]() {
        if (current_group.load(std::memory_order_acquire) != gi) {
          violation.store(true, std::memory_order_release);
        }
        running.fetch_add(1, std::memory_order_relaxed);
      };
      gb.add_task(std::move(t));
      hints.push_back(i % 3 == 0 ? TierHint::kCold : TierHint::kHot);
    }
  }
  const TaskGraph g = gb.build();
  Executor ex(4);
  ex.run(g, [&](GroupId gi) {
    current_group.store(static_cast<int>(gi), std::memory_order_release);
  }, hints);
  EXPECT_EQ(running.load(), 36);
  EXPECT_FALSE(violation.load());
}

TEST(Executor, DestructorDrainsParkedWorkers) {
  // Workers park when idle; destruction must wake and join them promptly
  // whether or not a run ever happened.
  {
    const Executor idle(8);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }  // destructor must not hang
  {
    Executor used(8);
    GraphBuilder gb;
    gb.begin_group("g");
    std::atomic<int> n{0};
    for (int i = 0; i < 32; ++i) {
      Task t;
      t.accesses = {acc(static_cast<hms::ObjectId>(i), AccessMode::Write)};
      t.work = [&n]() { n.fetch_add(1); };
      gb.add_task(std::move(t));
    }
    used.run(gb.build());
    EXPECT_EQ(n.load(), 32);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }  // parked-after-work destructor must not hang either
  SUCCEED();
}

// Regression: the round-robin injection cursor used to restart at slot 0
// for every group, so a phase-parallel app built from many small groups
// piled all its activations onto the first workers while the rest starved.
// The cursor now persists across groups (and runs): over many 2-task
// groups the scatter must come out balanced across all slots.
TEST(Executor, InjectionScatterIsBalancedAcrossSmallGroups) {
  constexpr unsigned kWorkers = 4;
  constexpr int kGroups = 50;
  constexpr int kPerGroup = 2;  // fewer eligible tasks than workers
  GraphBuilder gb;
  std::atomic<int> n{0};
  for (int gi = 0; gi < kGroups; ++gi) {
    gb.begin_group("g" + std::to_string(gi));
    for (int i = 0; i < kPerGroup; ++i) {
      Task t;
      t.accesses = {acc(static_cast<hms::ObjectId>(gi * 10 + i),
                        AccessMode::Write)};
      t.work = [&n]() { n.fetch_add(1, std::memory_order_relaxed); };
      gb.add_task(std::move(t));
    }
  }
  const TaskGraph g = gb.build();
  Executor ex(kWorkers);
  ex.run(g, [](GroupId) {});  // phase mode: groups activate one at a time
  EXPECT_EQ(n.load(), kGroups * kPerGroup);
  const std::vector<std::uint64_t> per_slot = ex.injection_slot_pushes();
  ASSERT_EQ(per_slot.size(), kWorkers);
  std::uint64_t total = 0;
  for (const std::uint64_t c : per_slot) total += c;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kGroups * kPerGroup));
  // 100 activations round-robin over 4 slots: exactly 25 each. With the
  // old per-group cursor reset, slots 0 and 1 would get 50 each and slots
  // 2 and 3 nothing.
  for (unsigned w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(per_slot[w], static_cast<std::uint64_t>(kGroups * kPerGroup) /
                               kWorkers)
        << "slot " << w;
  }
}

// Randomized graph-execution oracle: arbitrary access patterns produce
// arbitrary DAGs; execution must run every task exactly once and never
// start a task before all of its predecessors finished. The completion
// index per task is recorded and checked against every edge.
TEST(Executor, RandomizedGraphOracle) {
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull, 0xdeadull}) {
    Rng rng(seed);
    GraphBuilder gb;
    const int groups = 1 + static_cast<int>(rng.next_below(3));
    const int per_group = 20 + static_cast<int>(rng.next_below(30));
    const int total = groups * per_group;
    std::vector<std::atomic<int>> done(total);
    for (auto& d : done) d.store(0);
    std::atomic<bool> order_violation{false};
    std::atomic<int> executed{0};

    // Build first (task id known = insertion order), then wire the checks.
    for (int gi = 0; gi < groups; ++gi) {
      gb.begin_group("g" + std::to_string(gi));
      for (int i = 0; i < per_group; ++i) {
        Task t;
        const int accesses = 1 + static_cast<int>(rng.next_below(3));
        for (int a = 0; a < accesses; ++a) {
          const auto obj = static_cast<hms::ObjectId>(rng.next_below(8));
          const auto mode = rng.next_below(3) == 0 ? AccessMode::Write
                            : rng.next_below(2) == 0 ? AccessMode::ReadWrite
                                                     : AccessMode::Read;
          t.accesses.push_back(acc(obj, mode));
        }
        gb.add_task(std::move(t));
      }
    }
    TaskGraph g = gb.build();
    // Rebuild with work functors that verify predecessor completion: the
    // builder assigned ids in program order, so predecessors of task n all
    // have ids < n and their edges are queryable from the built graph.
    GraphBuilder gb2;
    for (int gi = 0; gi < groups; ++gi) {
      gb2.begin_group("g" + std::to_string(gi));
      for (int i = 0; i < per_group; ++i) {
        const TaskId id = static_cast<TaskId>(gi * per_group + i);
        Task t;
        t.accesses = g.task(id).accesses;
        t.work = [&, id]() {
          // Every predecessor (direct in-edge) must already be done.
          for (TaskId p = 0; p < static_cast<TaskId>(total); ++p) {
            const auto& succs = g.successors(p);
            if (std::find(succs.begin(), succs.end(), id) != succs.end() &&
                done[p].load(std::memory_order_acquire) == 0) {
              order_violation.store(true, std::memory_order_release);
            }
          }
          done[id].store(1, std::memory_order_release);
          executed.fetch_add(1, std::memory_order_relaxed);
        };
        gb2.add_task(std::move(t));
      }
    }
    const TaskGraph g2 = gb2.build();
    // Random tier hints must never affect correctness, only order.
    std::vector<TierHint> hints;
    for (int i = 0; i < total; ++i) {
      hints.push_back(rng.next_below(2) == 0 ? TierHint::kHot
                                             : TierHint::kCold);
    }
    Executor ex(4);
    const bool phase = rng.next_below(2) == 0;
    if (phase) {
      ex.run(g2, [](GroupId) {}, hints);
    } else {
      ex.run(g2, {}, hints);
    }
    EXPECT_EQ(executed.load(), total) << "seed " << seed;
    EXPECT_FALSE(order_violation.load()) << "seed " << seed;
  }
}

// perfbench/ reaches the executor through `IExecutor`, `make_executor`,
// `ExecutorBackend::kChaseLev` and `RuntimeConfig::executor_backend`. The
// tests do not build perfbench, so this case keeps those names compiling.
TEST(Executor, BenchmarkHarnessSpellingsResolve) {
  GraphBuilder gb;
  gb.begin_group("g");
  std::atomic<int> n{0};
  for (int i = 0; i < 8; ++i) {
    Task t;
    t.accesses = {acc(static_cast<hms::ObjectId>(i), AccessMode::Write)};
    t.work = [&n]() { n.fetch_add(1, std::memory_order_relaxed); };
    gb.add_task(std::move(t));
  }
  const std::unique_ptr<IExecutor> ex =
      make_executor(ExecutorBackend::kChaseLev, 2);
  ex->run(gb.build());
  EXPECT_EQ(n.load(), 8);
  EXPECT_EQ(ex->num_workers(), 2u);
  EXPECT_EQ(core::RuntimeConfig{}.executor_backend, ExecutorBackend::kChaseLev);
}

}  // namespace
}  // namespace tahoe::task
