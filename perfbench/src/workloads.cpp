#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "baselines/reactive.hpp"
#include "baselines/xmem.hpp"
#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "hms/migration.hpp"
#include "hooks.hpp"
#include "machine_info.hpp"
#include "memsim/sampler.hpp"
#include "spans.hpp"
#include "task/executor.hpp"
#include "task/sim_executor.hpp"
#include "trace/counters.hpp"
#include "trace/histogram.hpp"
#include "workloads/common.hpp"
#include "workloads/heat.hpp"
#include "workloads/lu.hpp"

namespace perfbench {

namespace {

using namespace tahoe;

// ---------------------------------------------------------------- stats

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::vector<double> scaled(const std::vector<Interval>& in, double factor) {
  std::vector<double> out;
  out.reserve(in.size());
  for (const Interval& t : in) out.push_back(t.seconds() * factor);
  return out;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// ------------------------------------------------------ registry deltas

std::map<std::string, std::uint64_t> counters_now() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] :
       trace::global_counters().snapshot_counters()) {
    out[name] = value;
  }
  return out;
}

std::map<std::string, trace::HistogramSnapshot> histograms_now() {
  std::map<std::string, trace::HistogramSnapshot> out;
  for (auto& [name, snap] : trace::global_counters().snapshot_histograms()) {
    out[name] = snap;
  }
  return out;
}

/// Counter and histogram growth over one or more measured stretches.
struct RegistryDelta {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, trace::HistogramSnapshot> histograms;

  std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  trace::HistogramSnapshot histogram(const std::string& name) const {
    const auto it = histograms.find(name);
    return it == histograms.end() ? trace::HistogramSnapshot{} : it->second;
  }
};

/// Records the registry before a stretch; add_to() folds the growth since.
class DeltaProbe {
 public:
  DeltaProbe() : counters_(counters_now()), histograms_(histograms_now()) {}

  void add_to(RegistryDelta& delta) const {
    for (const auto& [name, value] : counters_now()) {
      const auto it = counters_.find(name);
      delta.counters[name] += value - (it == counters_.end() ? 0 : it->second);
    }
    for (const auto& [name, after] : histograms_now()) {
      trace::HistogramSnapshot d = after;
      const auto it = histograms_.find(name);
      if (it != histograms_.end()) {
        for (std::size_t b = 0; b < d.buckets.size(); ++b) {
          d.buckets[b] -= it->second.buckets[b];
        }
        d.sum -= it->second.sum;
      }
      delta.histograms[name].merge(d);
    }
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, trace::HistogramSnapshot> histograms_;
};

// ---------------------------------------------------------------- cells

/// Deterministic statistics of one Runtime call. Two runs of one cell must
/// agree on every field, bit for bit.
struct CellStats {
  double steady = 0.0;  ///< simulated steady_iteration_seconds (sim cells)
  std::uint64_t migrations = 0;
  std::uint64_t bytes_moved = 0;
  std::uint64_t tasks = 0;
  std::size_t plan_copies = 0;
  bool verified = true;
  std::uint64_t aborted = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t no_space = 0;

  bool operator==(const CellStats&) const = default;
  bool clean() const noexcept {
    return verified && aborted == 0 && cancelled == 0 && no_space == 0;
  }
};

struct CellRun {
  CellStats stats;
  double seconds = 0.0;  ///< host wall time of the Runtime call
  double end = 0.0;      ///< when the call returned (now_seconds)
  CallLog log;
  double runtime_self = 0.0;  ///< traced runs: call span minus children
};

/// One benchmark cell: a Runtime call on a fresh application instance.
struct Cell {
  std::string label;
  std::function<CellRun(SpanRecorder*, std::uint64_t)> run;
};

CellStats stats_of(const core::RunReport& r, std::size_t plan_copies) {
  CellStats s;
  s.steady = r.steady_iteration_seconds();
  s.migrations = r.migrations;
  s.bytes_moved = r.bytes_moved;
  s.tasks = r.tasks_executed;
  s.plan_copies = plan_copies;
  s.verified = r.verified;
  s.aborted = r.migrations_aborted;
  s.cancelled = r.migrations_cancelled;
  s.no_space = r.failed_no_space;
  return s;
}

/// Time one Runtime call under a span named `name`; fills the timing
/// fields of `out` and returns the call's report.
template <typename Call>
core::RunReport timed_call(SpanRecorder* spans, const char* name,
                           std::uint64_t id, CellRun& out, Call&& call) {
  core::RunReport report;
  std::size_t index = 0;
  {
    const ScopedSpan span(spans, name, id);
    index = span.index();
    const double t0 = now_seconds();
    report = call();
    out.end = now_seconds();
    out.seconds = out.end - t0;
  }
  if (spans != nullptr) out.runtime_self = spans->self_seconds(index);
  out.stats = stats_of(report, out.log.plan_copies);
  return report;
}

using AppFactory = std::function<std::unique_ptr<core::Application>()>;

/// What the per-layer replays run on: an application, its machine and
/// its backing.
struct ReplaySubject {
  memsim::Machine machine;
  AppFactory make;
  hms::Backing backing = hms::Backing::Virtual;
};

/// Everything one set-up produces. The benchmark sets up several times
/// and keeps the first.
struct Plan {
  std::vector<Cell> cells;  ///< one pass of the timed loop
  /// Reference statistics per cell label, from set-up warm-up runs; cells
  /// without one take their first timed run as the reference.
  std::map<std::string, CellStats> reference;
  /// Pairs (tahoe label, fastest-tier-only label) for tahoe_vs_fast.
  std::vector<std::pair<std::string, std::string>> versus_fast;
  double calibrate_seconds = 0.0;
  bool real = false;
  unsigned workers = 0;  ///< real workloads: executor workers
  std::vector<ReplaySubject> replay;
  CallLog setup_log;  ///< wrapper calls made during set-up (real decides)
  std::uint64_t warmup_attempts = 0;
  std::uint64_t warmup_failed = 0;
  std::vector<std::string> notes;
};

/// Run a cell during set-up and keep its result as the reference.
void warm_up(Plan& plan, const Cell& cell) {
  const CellRun run = cell.run(nullptr, 0);
  ++plan.warmup_attempts;
  if (!run.stats.clean()) ++plan.warmup_failed;
  plan.reference[cell.label] = run.stats;
}

double timed_calibration(const memsim::Machine& m,
                         core::ModelConstants& out) {
  const double t0 = now_seconds();
  out = core::calibrate(m).to_constants();
  return now_seconds() - t0;
}

// -------------------------------------------------------- cell builders

std::vector<std::uint64_t> capacities(const memsim::Machine& m) {
  std::vector<std::uint64_t> caps;
  for (const memsim::DeviceModel& d : m.devices) caps.push_back(d.capacity);
  return caps;
}

/// Simulated cell on a virtual-backing runtime: run_static on `static_tier`
/// when it is >= 0, else run under the policy `make_policy` builds.
Cell sim_cell(std::string label, core::RuntimeConfig rc, std::string workload,
              workloads::Scale scale, int static_tier,
              std::function<std::unique_ptr<core::Policy>()> make_policy) {
  Cell c;
  c.label = std::move(label);
  c.run = [rc = std::move(rc), workload = std::move(workload), scale,
           static_tier, make_policy = std::move(make_policy)](
              SpanRecorder* spans, std::uint64_t id) {
    core::Runtime rt(rc);
    const std::unique_ptr<core::Application> app =
        workloads::make_workload(workload, scale);
    CellRun out;
    TimedApplication tapp(*app, out.log, spans, id);
    if (static_tier >= 0) {
      timed_call(spans, "runtime.run_static", id, out, [&] {
        return rt.run_static(tapp, static_cast<memsim::TierId>(static_tier));
      });
    } else {
      const std::unique_ptr<core::Policy> policy = make_policy();
      TimedPolicy tpolicy(*policy, out.log, spans, id);
      timed_call(spans, "runtime.run", id, out,
                 [&] { return rt.run(tapp, tpolicy); });
    }
    return out;
  };
  return c;
}

core::RuntimeConfig virtual_config(const memsim::Machine& m) {
  core::RuntimeConfig rc;
  rc.machine = m;
  rc.backing = hms::Backing::Virtual;
  return rc;
}

// ------------------------------------------------------------- sim-grid

/// FIG-9 (bw:0.5) and FIG-10 (lat:4) as EXPERIMENTS.md prints them:
/// NVM-only, X-Mem, Reactive, Tahoe, each normalized to DRAM-only.
struct FigRow {
  const char* workload;
  const char* columns[4];
};
const std::map<std::string, std::vector<FigRow>>& expected_figures() {
  static const std::map<std::string, std::vector<FigRow>> figs = {
      {"bw:0.5",
       {{"cg", {"1.77", "1.00", "1.05", "1.00"}},
        {"ft", {"1.37", "1.27", "1.14", "1.17"}},
        {"bt", {"1.07", "1.03", "1.03", "1.00"}},
        {"lu", {"1.11", "1.11", "1.05", "1.05"}},
        {"sp", {"1.15", "1.07", "1.07", "1.07"}},
        {"mg", {"1.76", "1.07", "1.41", "1.07"}},
        {"nekproxy", {"1.08", "0.99", "1.17", "1.00"}}}},
      {"lat:4",
       {{"cg", {"3.65", "1.11", "1.15", "1.11"}},
        {"ft", {"1.16", "1.16", "1.09", "1.09"}},
        {"bt", {"3.62", "3.07", "3.08", "3.10"}},
        {"lu", {"3.64", "3.64", "0.98", "0.98"}},
        {"sp", {"3.51", "2.39", "2.40", "2.44"}},
        {"mg", {"2.36", "0.96", "1.32", "2.16"}},
        {"nekproxy", {"3.76", "1.07", "1.13", "1.13"}}}},
  };
  return figs;
}

const char* const kGridSetups[] = {"dram", "nvm", "xmem", "reactive",
                                   "tahoe"};

std::string two_decimals(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

Plan make_sim_grid(const Options& opt) {
  Plan plan;
  const workloads::Scale scale =
      opt.quick ? workloads::Scale::Test : workloads::Scale::Bench;
  const std::vector<std::string> names =
      opt.quick ? std::vector<std::string>{"cg", "mg"}
                : workloads::workload_names();
  for (const std::string spec : {"bw:0.5", "lat:4"}) {
    const memsim::Machine m = grid_machine(spec, 256 * kMiB);
    core::ModelConstants constants;
    plan.calibrate_seconds += timed_calibration(m, constants);
    const core::RuntimeConfig rc = virtual_config(m);
    for (const std::string& w : names) {
      for (const char* setup : kGridSetups) {
        const std::string label = spec + "/" + w + "/" + setup;
        const std::string s = setup;
        int tier = -1;
        if (s == "dram") tier = static_cast<int>(m.fastest_tier());
        if (s == "nvm") tier = static_cast<int>(m.capacity_tier());
        plan.cells.push_back(sim_cell(
            label, rc, w, scale, tier,
            [s, constants]() -> std::unique_ptr<core::Policy> {
              if (s == "xmem") return std::make_unique<baselines::XMemPolicy>();
              if (s == "reactive") {
                return std::make_unique<baselines::ReactiveLruPolicy>();
              }
              return std::make_unique<core::TahoePolicy>(constants);
            }));
      }
      plan.versus_fast.emplace_back(spec + "/" + w + "/tahoe",
                                    spec + "/" + w + "/dram");
    }
  }
  // Warm-up: one pass over the grid, which is also every cell's reference.
  for (const Cell& c : plan.cells) warm_up(plan, c);

  if (opt.quick) {
    plan.notes.push_back(
        "gate: FIG-9/FIG-10 table check skipped in quick mode (Test scale)");
  } else {
    std::size_t checked = 0;
    std::size_t mismatched = 0;
    for (const auto& [spec, rows] : expected_figures()) {
      for (const FigRow& row : rows) {
        const std::string base = spec + "/" + row.workload + "/";
        const double dram = plan.reference.at(base + "dram").steady;
        for (int col = 0; col < 4; ++col) {
          const double v = plan.reference.at(base + kGridSetups[col + 1])
                               .steady / dram;
          ++checked;
          if (two_decimals(v) != row.columns[col]) {
            ++mismatched;
            plan.notes.push_back("gate: " + base + kGridSetups[col + 1] +
                                 " normalized " + two_decimals(v) +
                                 " != expected " + row.columns[col]);
          }
        }
      }
    }
    plan.warmup_failed += mismatched;
    plan.notes.push_back("gate: FIG-9/FIG-10 normalized columns " +
                         std::to_string(checked - mismatched) + "/" +
                         std::to_string(checked) + " match EXPERIMENTS.md");
  }
  for (const std::string& w : names) {
    plan.replay.push_back(ReplaySubject{
        grid_machine("bw:0.5", 256 * kMiB),
        [w, scale] { return workloads::make_workload(w, scale); },
        hms::Backing::Virtual});
  }
  return plan;
}

// ------------------------------------------------------------- cxl-plan

Plan make_cxl_plan(const Options& opt) {
  Plan plan;
  // Bench scale with a 16/64/128 MiB HBM/DRAM/CXL pyramid keeps every
  // Tahoe cell planner-bound yet under ~1.5 s. FIG-NT's lu (7-11 s per
  // Tahoe cell at Bench scale) would leave a run with one or two samples,
  // so it is left out.
  const workloads::Scale scale =
      opt.quick ? workloads::Scale::Test : workloads::Scale::Bench;
  const std::uint64_t dram = opt.quick ? 4 * kMiB : 64 * kMiB;
  memsim::Machine m =
      memsim::machines::cxl_platform(dram / 4, dram, 2 * dram, 16 * kGiB);
  core::ModelConstants constants;
  plan.calibrate_seconds = timed_calibration(m, constants);
  const core::RuntimeConfig rc = virtual_config(m);
  const std::vector<std::string> names =
      opt.quick ? std::vector<std::string>{"cg"}
                : std::vector<std::string>{"cg", "mg", "nekproxy"};
  for (const std::string& w : names) {
    const std::string label = "cxl/" + w + "/tahoe";
    plan.cells.push_back(sim_cell(label, rc, w, scale, -1, [constants] {
      return std::make_unique<core::TahoePolicy>(constants);
    }));
    // The bound is cheap (a few ms) and fixed: it is set-up work, not a
    // timed cell, so the timed cells stay planner-bound.
    warm_up(plan, sim_cell("cxl/" + w + "/fast", rc, w, scale,
                           static_cast<int>(m.fastest_tier()), nullptr));
    plan.versus_fast.emplace_back(label, "cxl/" + w + "/fast");
    plan.replay.push_back(ReplaySubject{
        m, [w, scale] { return workloads::make_workload(w, scale); },
        hms::Backing::Virtual});
  }
  // Warm the planner on the cheapest Tahoe cell (also its reference).
  warm_up(plan, plan.cells.front());
  return plan;
}

// ------------------------------------------------------------ real runs

unsigned real_workers() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // nproc - 1 executor workers; the last core belongs to the migration
  // helper thread.
  const unsigned workers = nproc > 1 ? nproc - 1 : 0;
  if (workers == 0 || workers + 1 > nproc) {
    throw std::runtime_error(
        "real workloads need nproc - 1 >= 1 executor workers plus the "
        "migration helper, within nproc = " +
        std::to_string(nproc) + " threads");
  }
  return workers;
}

Plan make_real(const std::string& label,
               const memsim::Machine& m, const AppFactory& make) {
  Plan plan;
  plan.real = true;
  plan.workers = real_workers();
  core::ModelConstants constants;
  plan.calibrate_seconds = timed_calibration(m, constants);

  // Tahoe's own simulated decision on the same machine: its schedule is
  // what the real runs enforce.
  core::Runtime sim(virtual_config(m));
  std::vector<task::ScheduledCopy> schedule;
  {
    const std::unique_ptr<core::Application> app = make();
    core::TahoePolicy policy(constants);
    TimedApplication tapp(*app, plan.setup_log, nullptr, 0);
    TimedPolicy tpolicy(policy, plan.setup_log, nullptr, 0);
    const core::RunReport r = sim.run(tapp, tpolicy);
    schedule = plan.setup_log.last_schedule;
    plan.reference["sim/" + label + "/tahoe"] =
        stats_of(r, plan.setup_log.plan_copies);
    plan.notes.push_back("plan: " + r.strategy + ", " +
                         std::to_string(schedule.size()) +
                         " scheduled copies, " +
                         std::to_string(r.migrations) +
                         " simulated migrations");
  }
  {
    const std::unique_ptr<core::Application> app = make();
    plan.reference["sim/" + label + "/fast"] =
        stats_of(sim.run_static(*app, m.fastest_tier()), 0);
  }
  plan.versus_fast.emplace_back("sim/" + label + "/tahoe",
                                "sim/" + label + "/fast");
  plan.warmup_attempts += 2;

  core::RuntimeConfig rc;
  rc.machine = m;
  rc.backing = hms::Backing::Real;
  // Warm-up: real registry, array initialisation and one iteration on the
  // real executor, so page faults and thread start-up stay out of the
  // timed runs.
  {
    hms::ObjectRegistry registry(capacities(m), hms::Backing::Real);
    hms::ChunkingPolicy chunking;
    chunking.dram_capacity = m.tier(m.fastest_tier()).capacity;
    const std::unique_ptr<core::Application> app = make();
    app->setup(registry, chunking);
    task::GraphBuilder builder;
    app->build_iteration(builder, 0);
    const task::TaskGraph graph = builder.build();
    task::make_executor(rc.executor_backend, plan.workers)->run(graph);
  }

  const unsigned workers = plan.workers;
  Cell cell;
  cell.label = "real/" + label;
  cell.run = [rc, make, schedule, workers](SpanRecorder* spans,
                                           std::uint64_t id) {
    core::Runtime rt(rc);
    const std::unique_ptr<core::Application> app = make();
    CellRun out;
    TimedApplication tapp(*app, out.log, spans, id);
    out.log.plan_copies = schedule.size();
    timed_call(spans, "runtime.run_real", id, out, [&] {
      return rt.run_real_report(tapp, schedule, workers);
    });
    return out;
  };
  plan.cells.push_back(std::move(cell));
  plan.replay.push_back(ReplaySubject{m, make, hms::Backing::Real});
  return plan;
}

memsim::Machine real_machine(std::uint64_t dram_bytes) {
  return grid_machine("bw:0.5", dram_bytes);
}

Plan make_real_lu(const Options& opt) {
  workloads::LuApp::Config c;
  // Fine-grained 24-column blocks and 0.5 MiB of DRAM: Tahoe picks the
  // phase-rotating (local) plan. Enough iterations per run that the O(n^3)
  // verify stays a minor share of the run.
  c.n = opt.quick ? 96 : 288;
  c.block = 24;
  c.iterations = opt.quick ? 4 : 160;
  return make_real("lu", real_machine(kMiB / 2),
                   [c] { return std::make_unique<workloads::LuApp>(c); });
}

Plan make_real_heat(const Options& opt) {
  workloads::HeatApp::Config c;
  c.nx = opt.quick ? 256 : 2048;
  c.ny = c.nx;
  c.bands = 4;
  c.iterations = opt.quick ? 4 : 20;
  return make_real("heat", real_machine(64 * kMiB),
                   [c] { return std::make_unique<workloads::HeatApp>(c); });
}

using PlanMaker = Plan (*)(const Options&);

PlanMaker plan_maker(const std::string& name) {
  if (name == "sim-grid") return make_sim_grid;
  if (name == "cxl-plan") return make_cxl_plan;
  if (name == "real-lu") return make_real_lu;
  if (name == "real-heat") return make_real_heat;
  throw std::runtime_error("unknown workload '" + name + "'");
}

// -------------------------------------------------------------- replays

/// Per-layer numbers from direct calls into each layer's public functions.
struct ReplayOut {
  std::vector<double> graph_build_ms;
  std::vector<double> sim_run_ms;
  double sim_tasks = 0.0;
  double sim_seconds = 0.0;
  std::vector<double> sample_ns;  ///< per graph: mean ns per sample() call
  double exec_tasks = 0.0;
  double exec_seconds = 0.0;
  std::size_t exec_runs = 0;
  RegistryDelta exec_delta;
  std::vector<double> create_us;
  std::size_t migration_runs = 0;
  RegistryDelta migration_delta;
};

void replay_subject(const ReplaySubject& s, unsigned workers, bool real,
                    SpanRecorder& spans, ReplayOut& out) {
  hms::ObjectRegistry registry(capacities(s.machine), s.backing);
  hms::ChunkingPolicy chunking;
  chunking.dram_capacity = s.machine.tier(s.machine.fastest_tier()).capacity;
  const std::unique_ptr<core::Application> app = s.make();
  app->setup(registry, chunking);
  const std::vector<core::ObjectInfo> objects = core::collect_objects(registry);

  // task::GraphBuilder: the declared tasks of every iteration, re-added
  // group by group (dependence derivation happens in add_task) and built.
  std::vector<task::TaskGraph> graphs;
  for (std::size_t it = 0; it < app->iterations(); ++it) {
    task::GraphBuilder declared;
    app->build_iteration(declared, it);
    const task::TaskGraph source = declared.build();
    std::vector<task::Task> tasks = source.tasks();
    task::GraphBuilder builder;
    const ScopedSpan span(&spans, "replay.graph_build", it);
    const double t0 = now_seconds();
    for (const task::Group& g : source.groups()) {
      builder.begin_group(g.name);
      for (task::TaskId id = g.first_task; id < g.last_task; ++id) {
        builder.add_task(std::move(tasks[id]));
      }
    }
    graphs.push_back(builder.build());
    out.graph_build_ms.push_back((now_seconds() - t0) * 1e3);
  }

  // task::SimExecutor::run with everything on the capacity tier, and
  // memsim::Sampler::sample over every task access of the result.
  hms::PlacementMap placement;
  for (const core::ObjectInfo& o : objects) {
    for (std::size_t c = 0; c < o.chunk_bytes.size(); ++c) {
      placement.set(o.id, c, s.machine.capacity_tier());
    }
  }
  memsim::Sampler sampler(s.machine.sample_interval, s.machine.cpu_hz,
                          s.machine.seed);
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    task::SimExecutor sim;
    task::SimExecutor::Options opts;
    opts.check_capacity = false;
    task::SimReport report;
    {
      const ScopedSpan span(&spans, "replay.sim_run", g);
      const double t0 = now_seconds();
      report = sim.run(graphs[g], s.machine, placement, {}, opts);
      const double dt = now_seconds() - t0;
      out.sim_run_ms.push_back(dt * 1e3);
      out.sim_seconds += dt;
      out.sim_tasks += static_cast<double>(graphs[g].num_tasks());
    }
    const ScopedSpan span(&spans, "replay.sample", g);
    std::size_t calls = 0;
    const double t0 = now_seconds();
    for (const task::Task& t : graphs[g].tasks()) {
      for (const task::DataAccess& a : t.accesses) {
        (void)sampler.sample(a.traffic, report.task_seconds[t.id]);
        ++calls;
      }
    }
    if (calls > 0) {
      out.sample_ns.push_back((now_seconds() - t0) * 1e9 /
                              static_cast<double>(calls));
    }
  }

  // task::make_executor(...)->run: real kernels on real workloads, pure
  // scheduling (empty task bodies) on simulated ones.
  {
    const std::unique_ptr<task::IExecutor> exec =
        task::make_executor(task::ExecutorBackend::kChaseLev, workers);
    const std::size_t runs = real ? std::min<std::size_t>(graphs.size(), 4)
                                  : graphs.size();
    const DeltaProbe probe;
    for (std::size_t g = 0; g < runs; ++g) {
      const ScopedSpan span(&spans, "replay.executor_run", g);
      const double t0 = now_seconds();
      exec->run(graphs[g]);
      out.exec_seconds += now_seconds() - t0;
      out.exec_tasks += static_cast<double>(graphs[g].num_tasks());
      ++out.exec_runs;
    }
    probe.add_to(out.exec_delta);
  }

  // hms::ObjectRegistry::create of the same objects into fresh registries.
  for (int rep = 0; rep < 5; ++rep) {
    hms::ObjectRegistry fresh(capacities(s.machine), s.backing);
    for (const core::ObjectInfo& o : objects) {
      const ScopedSpan span(&spans, "replay.registry_create", o.id);
      const double t0 = now_seconds();
      fresh.create(o.name, o.total_bytes(), fresh.capacity_tier(),
                   o.chunk_bytes.size());
      out.create_us.push_back((now_seconds() - t0) * 1e6);
    }
  }
}

/// hms::MigrationEngine on real bytes: promote and demote 16 MiB in 1 MiB
/// chunks through the helper thread.
void replay_migration(SpanRecorder& spans, ReplayOut& out) {
  hms::ObjectRegistry registry({64 * kMiB, 1 * kGiB}, hms::Backing::Real);
  constexpr std::size_t kChunks = 16;
  const hms::ObjectId id =
      registry.create("replay", kChunks * kMiB, memsim::kNvm, kChunks);
  for (std::size_t c = 0; c < kChunks; ++c) {
    std::fill_n(registry.chunk_ptr(id, c), kMiB, std::byte{1});
  }
  hms::MigrationEngine engine(registry, hms::MigrationEngine::Mode::HelperThread);
  const DeltaProbe probe;
  std::uint64_t tag = 0;
  for (int round = 0; round < 8; ++round) {
    for (const memsim::DeviceId dst : {memsim::kDram, memsim::kNvm}) {
      const ScopedSpan span(&spans, "replay.migration", tag);
      ++tag;
      for (std::size_t c = 0; c < kChunks; ++c) {
        engine.enqueue(hms::MigrationRequest{id, c, dst, tag});
      }
      engine.wait_tag(tag);
      ++out.migration_runs;
    }
  }
  engine.drain();
  probe.add_to(out.migration_delta);
}

// ------------------------------------------------------ measurement loop

struct Window {
  // Untraced calls only: the end-to-end metrics pool every call and
  // iteration of the window.
  std::vector<double> cell_ms;
  std::vector<double> iter_ms;
  double tasks = 0.0;
  double iter_seconds = 0.0;
  std::vector<double> untraced_pass_s;
  std::vector<double> traced_pass_s;
  /// Taken after the first untraced pass: every cell has run once, and
  /// the sample vectors, which grow with run length and host speed, are
  /// still small.
  double peak_rss_mib = 0.0;
  double seconds = 0.0;
  // Traced passes only.
  std::vector<double> setup_ms, build_ms, verify_ms, self_ms;
  double decide_ms = 0.0;
  std::size_t traced_calls = 0;
  std::size_t decide_calls = 0;
  std::size_t plan_copies = 0;
  double migrations = 0.0;
  double bytes_moved = 0.0;
  RegistryDelta traced_delta;
};

Metric metric(std::string name, double value, std::string unit,
              std::size_t samples, std::string clock) {
  return Metric{std::move(name), value, std::move(unit), samples,
                std::move(clock)};
}

double geomean_versus_fast(const Plan& plan) {
  double log_sum = 0.0;
  for (const auto& [tahoe, fast] : plan.versus_fast) {
    log_sum += std::log(plan.reference.at(tahoe).steady /
                        plan.reference.at(fast).steady);
  }
  return std::exp(log_sum / static_cast<double>(plan.versus_fast.size()));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sim-grid", "cxl-plan",
                                                 "real-lu", "real-heat"};
  return names;
}

memsim::Machine grid_machine(const std::string& nvm_spec,
                             std::uint64_t dram_bytes) {
  const std::size_t colon = nvm_spec.find(':');
  if (colon == std::string::npos) {
    throw std::runtime_error("nvm spec must be bw:<f> or lat:<m>");
  }
  const std::string kind = nvm_spec.substr(0, colon);
  const double value = std::stod(nvm_spec.substr(colon + 1));
  const memsim::DeviceModel dram = memsim::devices::dram(dram_bytes);
  if (kind == "bw") {
    return memsim::machines::platform_a(
        memsim::devices::nvm_bw_fraction(dram, value, 16 * kGiB), dram_bytes);
  }
  if (kind == "lat") {
    return memsim::machines::platform_a(
        memsim::devices::nvm_lat_multiple(dram, value, 16 * kGiB),
        dram_bytes);
  }
  throw std::runtime_error("unknown nvm spec kind '" + kind + "'");
}

Result run_workload(const Options& opt) {
  const PlanMaker maker = plan_maker(opt.workload);
  Result res;
  trace::set_histograms_enabled(false);

  // ---- set-up, several times; the first is measured from process start.
  const int setups = opt.quick ? 2 : 5;
  std::vector<double> setup_seconds;
  std::vector<double> calibrate_ms;
  Plan plan;
  for (int k = 0; k < setups; ++k) {
    const double t0 = k == 0 ? 0.0 : now_seconds();
    Plan p = maker(opt);
    setup_seconds.push_back(now_seconds() - t0);
    calibrate_ms.push_back(p.calibrate_seconds * 1e3);
    res.attempted += p.warmup_attempts;
    res.failed += p.warmup_failed;
    if (k == 0) {
      plan = std::move(p);
      continue;
    }
    for (const auto& [label, stats] : p.reference) {
      if (!(plan.reference.at(label) == stats)) {
        ++res.failed;
        res.notes.push_back("gate: set-up " + std::to_string(k) + " " +
                            label + " differs from the first set-up");
      }
    }
  }
  for (const std::string& n : plan.notes) res.notes.push_back(n);

  // ---- timed window: whole passes over the seeded cell order.
  std::vector<std::size_t> order(plan.cells.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::mt19937_64 rng(opt.seed);
  std::shuffle(order.begin(), order.end(), rng);

  SpanRecorder recorder;
  Window w;
  std::uint64_t next_id = 1;
  std::uint64_t gate_checks = 0;
  const double w0 = now_seconds();
  for (std::size_t pass = 0;; ++pass) {
    // A traced run alternates untraced and traced passes, so the two are
    // compared under the same conditions (trace.overhead_pct).
    const bool traced = opt.trace && pass % 2 == 1;
    trace::set_histograms_enabled(traced);
    const DeltaProbe probe;
    const double p0 = now_seconds();
    for (const std::size_t idx : order) {
      const Cell& cell = plan.cells[idx];
      ++res.attempted;
      ++gate_checks;
      CellRun run;
      try {
        run = cell.run(traced ? &recorder : nullptr, next_id++);
      } catch (const std::exception& e) {
        // A call the program aborts is a failed operation, not a crash of
        // the benchmark.
        ++res.failed;
        res.notes.push_back("gate: " + cell.label + " run " +
                            std::to_string(next_id - 1) + " threw: " + e.what());
        continue;
      }
      const auto [ref, first] = plan.reference.emplace(cell.label, run.stats);
      if (!run.stats.clean() || !(ref->second == run.stats)) {
        ++res.failed;
        res.notes.push_back("gate: " + cell.label + " run " +
                            std::to_string(next_id - 1) +
                            (run.stats.clean() ? " differs from its first run"
                                               : " failed its check"));
      }
      if (!traced) {
        w.cell_ms.push_back(run.seconds * 1e3);
        for (const double s : run.log.iteration_seconds(run.end)) {
          w.iter_ms.push_back(s * 1e3);
          w.iter_seconds += s;
        }
        w.tasks += static_cast<double>(run.stats.tasks);
        continue;
      }
      append(w.setup_ms, scaled(run.log.setup, 1e3));
      append(w.build_ms, scaled(run.log.build, 1e3));
      append(w.verify_ms, scaled(run.log.verify, 1e3));
      for (const Interval& d : run.log.decide) w.decide_ms += d.seconds() * 1e3;
      w.self_ms.push_back(run.runtime_self * 1e3);
      w.decide_calls += run.log.decide.size();
      w.plan_copies += run.log.plan_copies;
      w.migrations += static_cast<double>(run.stats.migrations);
      w.bytes_moved += static_cast<double>(run.stats.bytes_moved);
      ++w.traced_calls;
    }
    const double pass_seconds = now_seconds() - p0;
    if (traced) {
      w.traced_pass_s.push_back(pass_seconds);
      probe.add_to(w.traced_delta);
    } else {
      w.untraced_pass_s.push_back(pass_seconds);
      if (w.untraced_pass_s.size() == 1) w.peak_rss_mib = peak_rss_mib();
    }
    const bool timed_out = now_seconds() - w0 >= opt.seconds;
    if (timed_out && (!opt.trace || pass % 2 == 1)) break;
  }
  w.seconds = now_seconds() - w0;
  trace::set_histograms_enabled(false);

  res.correct = res.failed == 0;
  res.notes.push_back("gate: " + std::to_string(gate_checks) +
                      " timed operations checked against their reference, " +
                      std::to_string(res.failed) + " failed of " +
                      std::to_string(res.attempted) + " attempted");
  {
    const std::vector<double>& passes = w.untraced_pass_s;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "window: %.2f s, %zu untraced passes of %.4f/%.4f/%.4f s "
                  "(min/p50/max)",
                  w.seconds, passes.size(), percentile(passes, 0.0),
                  percentile(passes, 0.5), percentile(passes, 1.0));
    res.notes.push_back(buf);
  }
  const double versus_fast = geomean_versus_fast(plan);
  {
    char buf[96];
    std::snprintf(buf, sizeof buf, "tahoe_vs_fast: %.17g (simulated, %zu pairs)",
                  versus_fast, plan.versus_fast.size());
    res.notes.push_back(buf);
  }
  if (!opt.trace) {
    const std::size_t cells = w.cell_ms.size();
    const std::size_t iters = w.iter_ms.size();
    res.metrics = {
        metric("setup_s", median(setup_seconds), "s", setup_seconds.size(),
               "host"),
        metric("cell_ms.p50", percentile(w.cell_ms, 0.5), "ms", cells, "host"),
        metric("cells_per_s", static_cast<double>(cells) / w.seconds, "1/s",
               cells, "host"),
        metric("iter_ms.p50", percentile(w.iter_ms, 0.5), "ms", iters, "host"),
        metric("real_tasks_per_s", w.tasks / w.iter_seconds, "1/s", iters,
               "host"),
        metric("tahoe_vs_fast", versus_fast, "ratio", plan.versus_fast.size(),
               "simulated"),
        metric("peak_rss_mib", w.peak_rss_mib, "MiB", 1, "host"),
    };
    // The tails are printed but not gated: on a host that slows down by up
    // to 1.8x in spells, a p90 flips between the fast and the slow mode and
    // spread 0.2-0.8 between runs of real-lu.
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "tail (not gated): cell_ms.p90 %.6g ms (samples=%zu), "
                  "iter_ms.p90 %.6g ms (samples=%zu)",
                  percentile(w.cell_ms, 0.9), cells,
                  percentile(w.iter_ms, 0.9), iters);
    res.notes.push_back(buf);
    return res;
  }

  // ---- traced run: replays, then per-layer metrics.
  ReplayOut rp;
  const unsigned workers =
      plan.real ? plan.workers
                : std::max(1u, std::thread::hardware_concurrency() - 1);
  trace::set_histograms_enabled(true);
  for (const ReplaySubject& s : plan.replay) {
    replay_subject(s, workers, plan.real, recorder, rp);
  }
  if (!plan.real) replay_migration(recorder, rp);
  trace::set_histograms_enabled(false);

  // Real workloads: copies, steals and parks of the traced runs
  // themselves. Simulated workloads move no real bytes and run no real
  // executor, so those numbers come from the replays.
  const RegistryDelta& copies = plan.real ? w.traced_delta : rp.migration_delta;
  const RegistryDelta& sched = plan.real ? w.traced_delta : rp.exec_delta;
  const double sched_runs = static_cast<double>(
      plan.real ? w.traced_calls : std::max<std::size_t>(rp.exec_runs, 1));
  const double copy_bytes =
      static_cast<double>(copies.counter("migrate.bytes.to_dram") +
                          copies.counter("migrate.bytes.to_nvm"));
  const trace::HistogramSnapshot copy_ns =
      copies.histogram("migrate.copy_seconds");
  const trace::HistogramSnapshot wait_ns =
      copies.histogram("migrate.queue_wait_seconds");
  const double calls = static_cast<double>(std::max<std::size_t>(w.traced_calls, 1));
  const double traced_passes = static_cast<double>(w.traced_pass_s.size());

  // Planner work per pass; real workloads plan once per set-up, outside
  // the timed runs.
  double decide_ms = w.decide_ms / traced_passes;
  double decide_calls = static_cast<double>(w.decide_calls) / traced_passes;
  double plan_copies = static_cast<double>(w.plan_copies) / traced_passes;
  std::size_t plan_samples = w.traced_pass_s.size();
  if (plan.real) {
    decide_ms = 0.0;
    for (const Interval& d : plan.setup_log.decide) decide_ms += d.seconds() * 1e3;
    decide_calls = static_cast<double>(plan.setup_log.decide.size());
    plan_copies = static_cast<double>(plan.setup_log.last_schedule.size());
    plan_samples = 1;
  }
  // Each traced pass against the untraced pass just before it.
  std::vector<double> overhead;
  for (std::size_t i = 0; i < w.traced_pass_s.size(); ++i) {
    overhead.push_back((w.traced_pass_s[i] / w.untraced_pass_s[i] - 1.0) *
                       100.0);
  }

  res.metrics = {
      metric("workloads.setup_ms", median(w.setup_ms), "ms",
             w.setup_ms.size(), "host"),
      metric("workloads.build_iteration_ms", median(w.build_ms), "ms",
             w.build_ms.size(), "host"),
      metric("workloads.verify_ms", median(w.verify_ms), "ms",
             w.verify_ms.size(), "host"),
      metric("task.graph_build_ms", median(rp.graph_build_ms), "ms",
             rp.graph_build_ms.size(), "host"),
      metric("task.sim_run_ms", median(rp.sim_run_ms), "ms",
             rp.sim_run_ms.size(), "host"),
      metric("task.sim_tasks_per_s",
             rp.sim_seconds > 0 ? rp.sim_tasks / rp.sim_seconds : 0.0, "1/s",
             rp.sim_run_ms.size(), "host"),
      metric("memsim.sample_ns", median(rp.sample_ns), "ns",
             rp.sample_ns.size(), "host"),
      metric("core.decide_ms", decide_ms, "ms", plan_samples, "host"),
      metric("core.decide_calls", decide_calls, "count", plan_samples,
             "count"),
      metric("core.runtime_self_ms", median(w.self_ms), "ms",
             w.self_ms.size(), "host"),
      metric("core.calibrate_ms", median(calibrate_ms), "ms",
             calibrate_ms.size(), "host"),
      metric("core.plan_copies", plan_copies, "count", plan_samples,
             "count"),
      metric("task.executor_tasks_per_s",
             rp.exec_seconds > 0 ? rp.exec_tasks / rp.exec_seconds : 0.0,
             "1/s", rp.exec_runs, "host"),
      metric("task.steals",
             static_cast<double>(sched.counter("executor.steals")) / sched_runs,
             "count", static_cast<std::size_t>(sched_runs), "count"),
      metric("task.parks",
             static_cast<double>(sched.counter("executor.parks")) / sched_runs,
             "count", static_cast<std::size_t>(sched_runs), "count"),
      metric("hms.copy_gbps",
             copy_ns.sum > 0 ? copy_bytes / static_cast<double>(copy_ns.sum)
                             : 0.0,
             "GB/s", copy_ns.count(), "host"),
      metric("hms.copy_queue_wait_ms.p50",
             static_cast<double>(wait_ns.p50()) / 1e6, "ms", wait_ns.count(),
             "host"),
      metric("hms.migrations", w.migrations / calls, "count", w.traced_calls,
             plan.real ? "count" : "simulated"),
      metric("hms.bytes_moved_mib", w.bytes_moved / calls / kMiB, "MiB",
             w.traced_calls, plan.real ? "count" : "simulated"),
      metric("hms.registry_create_us", median(rp.create_us), "us",
             rp.create_us.size(), "host"),
      metric("trace.overhead_pct", median(overhead), "%", overhead.size(),
             "host"),
  };

  if (!opt.spans_out.empty()) {
    std::ostringstream header;
    header << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
           << ",\"spans\":" << recorder.spans().size() << "}";
    if (!recorder.write_jsonl(opt.spans_out, header.str())) {
      res.notes.push_back("warning: could not write spans to " +
                          opt.spans_out);
    } else {
      res.notes.push_back("spans: " + std::to_string(recorder.spans().size()) +
                          " written to " + opt.spans_out);
    }
  }
  return res;
}

}  // namespace perfbench
