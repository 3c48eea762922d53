#include "core/runtime.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "common/assert.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "core/adaptivity.hpp"
#include "core/initial_placement.hpp"
#include "core/profiles.hpp"
#include "hms/migration.hpp"
#include "hms/space_manager.hpp"
#include "task/executor.hpp"
#include "task/sim_executor.hpp"
#include "trace/counters.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"

namespace tahoe::core {

namespace {

/// Iterations profiled before each placement decision, as in the paper.
constexpr std::size_t kProfileIterations = 2;
/// Modeled cost per collected hardware sample (counter readout).
constexpr double kSampleCostSeconds = 50e-9;
/// Modeled cost of the queue-status check at each phase boundary.
constexpr double kSyncCostSeconds = 2e-6;
/// Extra attempts to reserve space for a planned fill before the object is
/// pinned to the capacity tier and the policy re-plans.
constexpr int kReservationRetries = 3;

/// Register the standard track labels on the global tracer (no-op when
/// tracing is off). Shared by the simulated and real execution paths.
void name_standard_tracks(std::uint32_t workers) {
  trace::Tracer& tracer = trace::global();
  if (!tracer.enabled()) return;
  for (std::uint32_t w = 0; w < workers; ++w) {
    tracer.set_track_name(w, "worker " + std::to_string(w));
  }
  tracer.set_track_name(trace::kMigrationTrack, "migration engine");
  tracer.set_track_name(trace::kPlannerTrack, "planner");
  tracer.set_track_name(trace::kRuntimeTrack, "runtime phases");
}

/// Replay the planned schedule against a hypothetical occupancy of every
/// constrained tier and return the first object whose fill cannot reserve
/// space even after kReservationRetries extra attempts (injected vetoes
/// model racing consumers of the tier). Returns kInvalidObject when the
/// whole schedule reserves cleanly. On two-tier machines this makes exactly
/// the same try_reserve calls in the same order as the original single-tier
/// replay, so seeded fault-injection sequences are preserved.
hms::ObjectId first_unreservable(
    const PlanInputs& in, const std::vector<task::ScheduledCopy>& schedule,
    const memsim::Machine& machine) {
  const memsim::TierId cap_tier = machine.capacity_tier();
  std::vector<hms::SpaceManager> spaces;
  spaces.reserve(cap_tier);
  for (memsim::TierId t = 0; t < cap_tier; ++t) {
    spaces.emplace_back(machine.tier(t).capacity);
  }
  for (const auto& [unit, dev] : in.current.entries()) {
    if (dev != cap_tier) {
      (void)spaces[dev].add(unit.first, unit.second,
                            in.unit_bytes(unit.first, unit.second));
    }
  }
  // Walk in trigger order (stable, so same-group evictions precede fills
  // exactly as the schedule lays them out).
  std::vector<std::size_t> order(schedule.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&schedule](std::size_t a, std::size_t b) {
                     return schedule[a].trigger_group <
                            schedule[b].trigger_group;
                   });
  for (const std::size_t i : order) {
    const task::ScheduledCopy& c = schedule[i];
    if (c.dst == cap_tier) {
      for (hms::SpaceManager& s : spaces) s.remove(c.object, c.chunk);
      continue;
    }
    if (spaces[c.dst].resident(c.object, c.chunk)) continue;
    // A fill onto one constrained tier vacates any other constrained tier
    // the unit occupied (moves between constrained tiers free the source).
    for (memsim::TierId t = 0; t < cap_tier; ++t) {
      if (t != c.dst) spaces[t].remove(c.object, c.chunk);
    }
    bool reserved = false;
    for (int attempt = 0; attempt <= kReservationRetries && !reserved;
         ++attempt) {
      reserved = spaces[c.dst].try_reserve(c.object, c.chunk, c.bytes);
    }
    if (!reserved) return c.object;
  }
  return hms::kInvalidObject;
}

task::TaskGraph build_graph(Application& app, std::size_t iteration) {
  task::GraphBuilder builder;
  app.build_iteration(builder, iteration);
  return builder.build();
}

/// The per-run bookkeeping every entry point shares: opens the telemetry
/// phase, names the report, and baselines the process-global fault and
/// trace-drop tallies so close() reports only this run's share of them.
class RunScope {
 public:
  RunScope(const std::string& label, const std::string& workload,
           const std::string& policy, const memsim::Machine& machine) {
    trace::telemetry().begin_run(label);
    report.workload = workload;
    report.policy = policy;
    report.tier_names.reserve(machine.devices.size());
    for (const memsim::DeviceModel& d : machine.devices) {
      report.tier_names.push_back(d.name);
    }
  }

  RunReport close(const hms::ObjectRegistry& registry) {
    report.failed_no_space = registry.stats().failed_no_space;
    report.faults_injected = fault::global().total_injected() - faults_before_;
    report.trace_dropped_events = trace::global().dropped() - dropped_before_;
    trace::sync_dropped_events_counter();
    return std::move(report);
  }

  RunReport report;

 private:
  const std::uint64_t faults_before_ = fault::global().total_injected();
  const std::uint64_t dropped_before_ = trace::global().dropped();
};

}  // namespace

/// One simulated run's state, threaded through the stages. Fixed-placement
/// runs use it with an empty schedule.
struct Runtime::SimRun {
  SimRun(const memsim::Machine& m, AppState& s, RunReport& r)
      : machine(m), state(s), report(r) {
    for (const ObjectInfo& o : s.objects) object_names[o.id] = o.name;
    // The simulated timeline is laid out on one virtual clock that
    // accumulates iteration makespans, so a full run reads left-to-right in
    // chrome://tracing. All instrumentation vanishes when tracing is off.
    trace::Tracer& tracer = trace::global();
    if (tracer.enabled()) {
      name_standard_tracks(m.workers);
      opts.tracer = &tracer;
    }
  }

  /// Simulate one iteration under the installed schedule, fold its timing
  /// (and attribution, when collected) into the report, and advance the
  /// virtual clock.
  task::SimReport simulate_iteration(const task::TaskGraph& graph);

  /// Fold the profiler's view into the attribution rows and move the rows
  /// into the report.
  void report_attribution(const PhaseProfiles& profiles);

  /// Allocation name for exports ("object-<id>" when unknown).
  std::string object_name(std::uint64_t id) const {
    const auto it = object_names.find(id);
    return it != object_names.end() ? it->second
                                    : "object-" + std::to_string(id);
  }

  const memsim::Machine& machine;
  AppState& state;
  RunReport& report;
  task::SimExecutor executor;
  task::SimExecutor::Options opts;
  double vclock = 0.0;

  /// The installed plan (its strategy goes straight to the report).
  std::vector<task::ScheduledCopy> schedule;
  /// Objects demoted by the degradation path; persists across re-profiles
  /// so a repeatedly failing object is not retried forever.
  std::vector<hms::ObjectId> pinned;
  std::map<std::uint64_t, std::string> object_names;

  // Attribution accumulators (filled only when opts.attribution).
  std::vector<std::string> group_names;
  std::map<std::pair<std::string, std::string>, AttributionRow> attr_rows;
  std::map<std::string, ObjectMigrationRow> obj_rows;
};

task::SimReport Runtime::SimRun::simulate_iteration(
    const task::TaskGraph& graph) {
  opts.trace_time_offset = vclock;
  task::SimReport sim =
      executor.run(graph, machine, state.placement, schedule, opts);
  report.iteration_seconds.push_back(sim.makespan);
  report.compute_seconds += sim.makespan;
  report.tasks_executed += graph.num_tasks();
  report.bytes_moved += sim.bytes_copied;
  // Count only copies that moved data (no-op copies are free).
  report.migrations += sim.copies_done;
  report.copy_busy_seconds += sim.copy_busy_seconds;
  report.stall_seconds += sim.stall_seconds;
  vclock += sim.makespan;
  if (!opts.attribution) return sim;

  if (group_names.size() < graph.num_groups()) {
    group_names.resize(graph.num_groups());
  }
  for (task::GroupId g = 0; g < graph.num_groups(); ++g) {
    group_names[g] = graph.group(g).name;
  }
  for (const task::AccessTally& t : sim.access_tallies) {
    const std::string gname = t.group < group_names.size()
                                  ? group_names[t.group]
                                  : std::to_string(t.group);
    AttributionRow& row = attr_rows[{gname, object_name(t.object)}];
    row.tasks += t.tasks;
    row.tier_loads.resize(machine.devices.size());
    row.tier_stores.resize(machine.devices.size());
    row.tier_loads[t.device] += t.loads;
    row.tier_stores[t.device] += t.stores;
  }
  for (const task::CopyTally& t : sim.copy_tallies) {
    ObjectMigrationRow& row = obj_rows[object_name(t.object)];
    if (t.dst < t.src) {  // toward a faster tier
      row.promotions += t.copies;
      row.bytes_promoted += t.bytes;
    } else {
      row.evictions += t.copies;
      row.bytes_evicted += t.bytes;
    }
    row.copies_hidden += t.hidden;
    auto flow = std::find_if(
        row.flows.begin(), row.flows.end(), [&t](const TierFlowRow& f) {
          return f.src == t.src && f.dst == t.dst;
        });
    if (flow == row.flows.end()) {
      flow = row.flows.insert(
          flow, TierFlowRow{static_cast<std::uint32_t>(t.src),
                            static_cast<std::uint32_t>(t.dst), 0, 0});
    }
    flow->copies += t.copies;
    flow->bytes += t.bytes;
  }
  return sim;
}

void Runtime::SimRun::report_attribution(const PhaseProfiles& profiles) {
  // Raw sampled counts and their interval-corrected estimates, so exports
  // show what the planner saw next to the ground truth.
  for (task::GroupId g = 0; g < profiles.groups.size(); ++g) {
    const std::string gname =
        g < group_names.size() ? group_names[g] : std::to_string(g);
    for (const auto& [unit, counts] : profiles.groups[g].units) {
      AttributionRow& row = attr_rows[{gname, object_name(unit.object)}];
      row.sampled_loads += counts.loads;
      row.sampled_stores += counts.stores;
      row.est_loads += static_cast<std::uint64_t>(
          counts.est_loads(machine.sample_interval));
      row.est_stores += static_cast<std::uint64_t>(
          counts.est_stores(machine.sample_interval));
    }
  }
  report.attribution.reserve(attr_rows.size());
  for (auto& [key, row] : attr_rows) {
    row.task_type = key.first;
    row.object = key.second;
    report.attribution.push_back(std::move(row));
  }
  report.objects.reserve(obj_rows.size());
  for (auto& [name, row] : obj_rows) {
    row.object = name;
    std::sort(row.flows.begin(), row.flows.end(),
              [](const TierFlowRow& a, const TierFlowRow& b) {
                return a.src != b.src ? a.src < b.src : a.dst < b.dst;
              });
    report.objects.push_back(std::move(row));
  }
}

std::vector<ObjectInfo> collect_objects(const hms::ObjectRegistry& registry) {
  std::vector<ObjectInfo> out;
  for (const hms::ObjectId id : registry.live_objects()) {
    const hms::DataObject& obj = registry.get(id);
    ObjectInfo info;
    info.id = id;
    info.name = std::string(obj.name());
    info.static_ref_estimate = obj.static_ref_estimate;
    info.chunk_bytes.reserve(obj.num_chunks());
    for (const hms::Chunk& c : obj.chunks()) info.chunk_bytes.push_back(c.bytes);
    out.push_back(std::move(info));
  }
  return out;
}

std::vector<task::TierHint> compute_tier_hints(
    const task::TaskGraph& graph, const hms::ObjectRegistry& registry,
    const std::vector<task::ScheduledCopy>& schedule) {
  // Start from the registry's current placement...
  std::map<hms::ObjectId, std::vector<memsim::DeviceId>> device;
  for (const hms::ObjectId id : registry.live_objects()) {
    const hms::DataObject& obj = registry.get(id);
    std::vector<memsim::DeviceId>& d = device[id];
    d.reserve(obj.num_chunks());
    for (const hms::Chunk& c : obj.chunks()) d.push_back(c.device);
  }
  // ...and replay the plan's copies group by group: a copy with
  // needed_group g is complete before group g runs, so tasks of group >= g
  // see its destination tier.
  std::vector<std::vector<const task::ScheduledCopy*>> due(graph.num_groups());
  for (const task::ScheduledCopy& c : schedule) {
    if (c.needed_group < graph.num_groups()) due[c.needed_group].push_back(&c);
  }
  std::vector<task::TierHint> hints(graph.num_tasks(), task::TierHint::kHot);
  for (task::GroupId g = 0; g < graph.num_groups(); ++g) {
    for (const task::ScheduledCopy* c : due[g]) {
      auto it = device.find(c->object);
      if (it == device.end()) continue;
      if (c->chunk < it->second.size()) it->second[c->chunk] = c->dst;
    }
    const task::Group& grp = graph.group(g);
    for (task::TaskId id = grp.first_task; id < grp.last_task; ++id) {
      bool nvm_bound = false;
      for (const task::DataAccess& a : graph.task(id).accesses) {
        if (!a.reads()) continue;
        const auto it = device.find(a.object);
        if (it == device.end()) continue;  // unknown object: assume hot
        const std::vector<memsim::DeviceId>& d = it->second;
        if (a.chunk == task::kAllChunks) {
          for (const memsim::DeviceId dev : d) {
            nvm_bound |= dev != memsim::kDram;
          }
        } else if (a.chunk < d.size()) {
          nvm_bound |= d[a.chunk] != memsim::kDram;
        }
        if (nvm_bound) break;
      }
      if (nvm_bound) hints[id] = task::TierHint::kCold;
    }
  }
  return hints;
}

Runtime::Runtime(RuntimeConfig config) : config_(std::move(config)) {
  TAHOE_REQUIRE(config_.machine.devices.size() >= 2,
                "machine must have DRAM and NVM tiers");
}

Runtime::AppState Runtime::prepare(Application& app, bool huge_tiers) {
  const memsim::Machine& m = config_.machine;
  std::vector<std::uint64_t> caps;
  caps.reserve(m.devices.size());
  for (const memsim::DeviceModel& d : m.devices) caps.push_back(d.capacity);
  if (huge_tiers) {
    // Static baselines: the pinned tier must hold the full footprint.
    const std::uint64_t big =
        *std::max_element(caps.begin(), caps.end());
    for (std::uint64_t& c : caps) c = big;
  }

  AppState state;
  state.registry = std::make_unique<hms::ObjectRegistry>(caps, config_.backing);
  hms::ChunkingPolicy chunking;
  chunking.dram_capacity =
      config_.chunking ? m.tier(m.fastest_tier()).capacity : 0;
  app.setup(*state.registry, chunking);
  TAHOE_REQUIRE(state.registry->num_objects() > 0,
                "application allocated no data objects");
  state.objects = collect_objects(*state.registry);
  for (const ObjectInfo& o : state.objects) {
    for (std::size_t c = 0; c < o.chunk_bytes.size(); ++c) {
      state.placement.set(o.id, c, m.capacity_tier());
    }
  }
  return state;
}

void Runtime::decide(SimRun& run, Policy& policy, const task::TaskGraph& graph,
                     const PhaseProfiles* profiles, std::size_t iteration) {
  PlanInputs inputs;
  inputs.graph = &graph;
  inputs.machine = &run.machine;
  inputs.profiles = profiles;
  inputs.objects = run.state.objects;
  inputs.current = run.state.placement;
  const auto record_plan = [&](const PlanDecision& decision, int round) {
    PlanRecord rec;
    rec.iteration = iteration;
    rec.replan_round = round;
    rec.strategy = decision.strategy;
    rec.local_gain = decision.local_gain;
    rec.global_gain = decision.global_gain;
    rec.predicted_gain = decision.predicted_gain;
    rec.schedule_copies = decision.schedule.size();
    rec.pinned_nvm.reserve(run.pinned.size());
    for (const hms::ObjectId id : run.pinned) {
      rec.pinned_nvm.push_back(run.object_name(id));
    }
    rec.candidates = decision.provenance;
    for (PlanCandidate& c : rec.candidates) {
      c.object = run.object_name(c.object_id);
    }
    run.report.plans.push_back(std::move(rec));
  };

  // Bounded: each round pins at least one more object, and a plan with
  // everything pinned schedules no fills at all.
  constexpr int kMaxRounds = 8;
  PlanDecision decision;
  for (int round = 0;; ++round) {
    inputs.pinned_nvm = run.pinned;
    decision = policy.decide(inputs);
    if (config_.fixed_decision_seconds) {
      decision.decision_seconds = *config_.fixed_decision_seconds;
    }
    record_plan(decision, round);
    const hms::ObjectId offender =
        first_unreservable(inputs, decision.schedule, run.machine);
    if (offender == hms::kInvalidObject) break;
    if (round + 1 >= kMaxRounds) {
      // Last resort: keep the plan but strip the offender's fills so the
      // schedule stays capacity-safe.
      const memsim::TierId cap_tier = run.machine.capacity_tier();
      std::erase_if(decision.schedule,
                    [offender, cap_tier](const task::ScheduledCopy& c) {
                      return c.object == offender && c.dst != cap_tier;
                    });
      TAHOE_WARN("plan validation gave up after " << kMaxRounds
                                                  << " rounds; dropping DRAM "
                                                     "fills of object "
                                                  << offender);
      break;
    }
    run.pinned.push_back(offender);
    ++run.report.plans_degraded;
    trace::global_counters().get("plan.degraded").increment();
    TAHOE_WARN("DRAM reservation for object "
               << offender << " failed "
               << (kReservationRetries + 1)
               << " times; pinning it to NVM and re-planning");
  }

  run.schedule = std::move(decision.schedule);
  run.report.strategy = decision.strategy;
  run.report.decision_seconds += decision.decision_seconds;
  run.report.overhead_seconds += decision.decision_seconds;
  if (run.opts.tracer != nullptr) {
    const std::string label = "decide " + run.report.strategy;
    run.opts.tracer->instant(
        trace::kPlannerTrack, label.c_str(), run.vclock, "copies",
        run.schedule.size(), "cost_us",
        static_cast<std::uint64_t>(decision.decision_seconds * 1e6));
  }
  TAHOE_DEBUG("decision for " << run.report.workload << ": "
                              << run.report.strategy << ", "
                              << run.schedule.size() << " copies");
}

RunReport Runtime::run(Application& app, Policy& policy) {
  const memsim::Machine& machine = config_.machine;
  RunScope scope("run:" + app.name() + "/" + policy.name(), app.name(),
                 policy.name(), machine);
  RunReport& report = scope.report;
  AppState state = prepare(app, /*huge_tiers=*/false);
  if (config_.initial_placement) {
    // Free at allocation time.
    for (const auto& [u, t] : choose_initial_tiers(state.objects, machine)) {
      state.placement.set(u.object, u.chunk, t);
    }
  }
  SimRun run(machine, state, report);
  run.opts.unit_size = [&state](hms::ObjectId id, std::size_t chunk) {
    return state.registry->get(id).chunk(chunk).bytes;
  };
  run.opts.attribution = config_.attribution;
  trace::Tracer* const tracer = run.opts.tracer;

  Profiler profiler(memsim::Sampler(machine.sample_interval, machine.cpu_hz,
                                    machine.seed));
  AdaptiveMonitor monitor;
  std::size_t profiling_left =
      policy.needs_profiling() ? kProfileIterations : 0;
  std::size_t enforced_since_decision = 0;
  const std::size_t iterations = app.iterations();
  TAHOE_REQUIRE(iterations >= 1, "application declares no iterations");

  for (std::size_t iter = 0; iter < iterations; ++iter) {
    const task::TaskGraph graph = build_graph(app, iter);
    // Offline policies (no profiling) decide on the first iteration's graph.
    if (iter == 0 && profiling_left == 0) {
      decide(run, policy, graph, nullptr, iter);
    }

    const double start = run.vclock;
    const std::uint64_t samples_before = profiler.samples_taken();
    const task::SimReport sim = run.simulate_iteration(graph);
    report.overhead_seconds +=
        static_cast<double>(graph.num_groups()) * kSyncCostSeconds;

    if (profiling_left > 0) {
      profiler.observe(graph, sim);
      const std::uint64_t samples = profiler.samples_taken() - samples_before;
      report.overhead_seconds +=
          static_cast<double>(samples) * kSampleCostSeconds;
      if (tracer != nullptr) {
        tracer->complete(trace::kPlannerTrack, "profile", start, sim.makespan,
                         "iteration", iter, "samples", samples);
      }
      if (--profiling_left == 0) {
        decide(run, policy, graph, &profiler.profiles(), iter);
        enforced_since_decision = 0;
      }
    } else if (config_.adaptive && policy.needs_profiling()) {
      // The first enforced iteration pays one-time migrations; the second
      // is the steady-state baseline the later ones are checked against.
      if (++enforced_since_decision == 2) {
        monitor.set_baseline(sim.group_seconds);
      } else if (enforced_since_decision > 2 && monitor.has_baseline() &&
                 monitor.deviates(sim.group_seconds)) {
        ++report.reprofiles;
        trace::global_counters().get("runtime.reprofiles").increment();
        profiler.reset();
        profiling_left = kProfileIterations;
        if (tracer != nullptr) {
          tracer->instant(trace::kPlannerTrack, "reprofile", run.vclock,
                          "iteration", iter);
        }
        TAHOE_DEBUG("workload variation detected at iteration "
                    << iter << "; re-profiling");
      }
    }

    if (tracer != nullptr) {
      // Per-iteration counter snapshot: cumulative run totals plus every
      // registered metric, all on the runtime track.
      tracer->counter(trace::kRuntimeTrack, "bytes_moved", run.vclock,
                      report.bytes_moved);
      tracer->counter(trace::kRuntimeTrack, "migrations", run.vclock,
                      report.migrations);
      tracer->counter(trace::kRuntimeTrack, "stall_us", run.vclock,
                      static_cast<std::uint64_t>(report.stall_seconds * 1e6));
      for (const auto& [name, value] : trace::global_counters().snapshot()) {
        tracer->counter(trace::kRuntimeTrack, name.c_str(), run.vclock, value);
      }
    }
  }

  if (config_.attribution) run.report_attribution(profiler.profiles());
  return scope.close(*state.registry);
}

RunReport Runtime::run_static(Application& app, memsim::DeviceId tier) {
  TAHOE_REQUIRE(tier < config_.machine.devices.size(), "tier out of range");
  std::string policy = "tier" + std::to_string(tier) + "-only";
  if (config_.machine.num_tiers() == 2) {
    policy = tier == memsim::kDram ? "dram-only" : "nvm-only";
  }
  return run_fixed(app, policy, [tier](AppState& state,
                                       memsim::Machine& machine) {
    // Virtually enlarge the pinned tier.
    std::uint64_t big = 0;
    for (const memsim::DeviceModel& d : machine.devices) {
      big = std::max(big, d.capacity);
    }
    machine.devices[tier].capacity = big;
    for (const ObjectInfo& o : state.objects) {
      for (std::size_t c = 0; c < o.chunk_bytes.size(); ++c) {
        state.placement.set(o.id, c, tier);
      }
    }
  });
}

RunReport Runtime::run_pinned(Application& app,
                              const std::vector<std::string>& dram_objects) {
  return run_fixed(app, "pinned", [&dram_objects](AppState& state,
                                                  memsim::Machine& machine) {
    const memsim::TierId fast = machine.fastest_tier();
    const memsim::TierId cap = machine.capacity_tier();
    std::uint64_t pinned_bytes = 0;
    for (const ObjectInfo& o : state.objects) {
      const bool in_dram = std::find(dram_objects.begin(), dram_objects.end(),
                                     o.name) != dram_objects.end();
      for (std::size_t c = 0; c < o.chunk_bytes.size(); ++c) {
        state.placement.set(o.id, c, in_dram ? fast : cap);
      }
      if (in_dram) pinned_bytes += o.total_bytes();
    }
    machine.devices[fast].capacity =
        std::max(machine.tier(fast).capacity, pinned_bytes);
  });
}

RunReport Runtime::run_fixed(
    Application& app, const std::string& policy,
    const std::function<void(AppState&, memsim::Machine&)>& place) {
  RunScope scope("run:" + app.name() + "/" + policy, app.name(), policy,
                 config_.machine);
  AppState state = prepare(app, /*huge_tiers=*/true);
  memsim::Machine machine = config_.machine;
  place(state, machine);
  SimRun run(machine, state, scope.report);
  for (std::size_t iter = 0; iter < app.iterations(); ++iter) {
    run.simulate_iteration(build_graph(app, iter));
  }
  return scope.close(*state.registry);
}

bool Runtime::run_real(Application& app,
                       const std::vector<task::ScheduledCopy>& schedule,
                       unsigned workers) {
  return run_real_report(app, schedule, workers).verified;
}

RunReport Runtime::run_real_report(
    Application& app, const std::vector<task::ScheduledCopy>& schedule,
    unsigned workers) {
  TAHOE_REQUIRE(config_.backing == hms::Backing::Real,
                "run_real requires real backing");
  // Real-executor runs have no virtual clock; the sampler's wall-clock
  // thread (if configured) does the ticking, the scope just marks the phase.
  RunScope scope("real:" + app.name(), app.name(), "real", config_.machine);
  AppState state = prepare(app, /*huge_tiers=*/false);
  name_standard_tracks(workers);
  // The migration engine, the pool and the graph its workers read for every
  // task live on the heap, not in this frame: next to this thread's stack,
  // real-lu iterations measured ~25% (engine), ~25% (pool) and ~30% (graph)
  // slower (4-core Xeon, perfbench).
  const auto engine = std::make_unique<hms::MigrationEngine>(*state.registry);
  const auto executor = std::make_unique<task::Executor>(workers);
  const auto graph = std::make_unique<task::TaskGraph>();
  const double deadline = config_.migration_wait_deadline_seconds;

  for (std::size_t iter = 0; iter < app.iterations(); ++iter) {
    *graph = build_graph(app, iter);
    // Executor-side overlap: NVM-bound tasks are deferred behind
    // DRAM-resident ones while the helper thread works through this
    // iteration's promotions (see compute_tier_hints).
    const std::vector<task::TierHint> hints =
        compute_tier_hints(*graph, *state.registry, schedule);
    executor->run(*graph, [&](task::GroupId g) {
      // Fire this group's proactive copies, then wait for the ones the
      // group needs — the paper's phase-boundary protocol. With a deadline
      // configured, a stalled helper cannot hold the application hostage:
      // requests the group is already past are cancelled and the tasks
      // simply read from the source tier.
      for (const task::ScheduledCopy& c : schedule) {
        if (c.trigger_group == g) {
          engine->enqueue(hms::MigrationRequest{c.object, c.chunk, c.dst,
                                                c.needed_group});
        }
      }
      if (deadline > 0.0) {
        if (!engine->wait_tag_for(g, deadline)) {
          const std::size_t n = engine->cancel_tag(g);
          TAHOE_WARN("group " << g << " migration wait exceeded " << deadline
                              << " s; cancelled " << n
                              << " queued request(s) and proceeding");
          // The one in-flight copy (if any) cannot be cancelled safely;
          // it is a single bounded memcpy, so finish the protocol on it.
          engine->wait_tag(g);
        }
      } else {
        engine->wait_tag(g);
      }
    }, hints);
  }
  engine->drain();

  RunReport& report = scope.report;
  report.verified = app.verify(*state.registry);
  const hms::MigrationStats& ms = state.registry->stats();
  report.migrations = ms.migrations;
  report.bytes_moved = ms.bytes_moved;
  report.migrations_retried = engine->retried();
  report.migrations_aborted = engine->aborted();
  report.migrations_cancelled = engine->cancelled();
  report.plans_degraded = engine->degraded_objects().size();
  report.tasks_executed = executor->stats().tasks_run;
  return scope.close(*state.registry);
}

}  // namespace tahoe::core
