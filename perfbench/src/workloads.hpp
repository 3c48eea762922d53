// The benchmark's four workloads and the loop that measures them.
//
//   sim-grid   FIG-9 + FIG-10 grid: 7 paper workloads x {bw:0.5, lat:4} x
//              {DRAM-only, NVM-only, X-Mem, Reactive, Tahoe}, Bench scale,
//              virtual backing. Loads graph declaration/build, the sampler
//              and the fluid SimExecutor; 2-tier planning is a small share.
//   cxl-plan   Tahoe against the fastest-tier-only bound on the 4-tier CXL
//              platform (FIG-NT workloads cg, mg, nekproxy). Host time is
//              dominated by the multi-tier planner.
//   real-lu    run_real of fine-grained blocked LU on real bytes with a
//              phase-rotating (local) Tahoe plan: graph rebuild, schedule
//              scan, executor scheduling and helper-thread copies.
//   real-heat  run_real of a 2048^2 heat stencil in coarse bands with a
//              global plan (<= 2 copies per run): the same real path with
//              almost no copies — the bypass for real-path optimisations.
//
// Each workload is a list of cells (one Runtime call each). The seed only
// shuffles the cell order; the workloads have no other randomness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "memsim/machine.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes and short set-up, for the benchmark's own smoke test.
  bool quick = false;
  /// Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value
  std::string clock;        ///< "host", "simulated" or "count"
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (gate outcome,
  /// sample counts, machine fingerprint).
  std::vector<std::string> notes;
};

const std::vector<std::string>& workload_names();

/// Run one workload end to end (untraced) or traced (per-layer metrics).
/// Throws std::runtime_error on a refused configuration.
Result run_workload(const Options& options);

/// Platform-A machine of the FIG-9/FIG-10 grid: "bw:<fraction>" or
/// "lat:<multiple>" NVM next to `dram_bytes` of DRAM.
tahoe::memsim::Machine grid_machine(const std::string& nvm_spec,
                                    std::uint64_t dram_bytes);

}  // namespace perfbench
