// Shared plumbing for the experiment-regeneration binaries (one binary per
// paper table/figure). Every bench prints a normalized table in the same
// form as the paper's figure it regenerates, plus an optional CSV dump.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/artifacts.hpp"
#include "core/planner.hpp"
#include "core/report.hpp"
#include "core/runtime.hpp"
#include "workloads/common.hpp"

namespace tahoe::bench {

struct BenchConfig {
  /// NVM spec: "bw:<fraction>", "lat:<multiple>", or "optane".
  std::string nvm_spec = "bw:0.5";
  std::uint64_t dram_capacity = 256 * kMiB;
  std::uint64_t nvm_capacity = 16 * kGiB;
  std::uint32_t workers = 0;  ///< 0 = machine default
  workloads::Scale scale = workloads::Scale::Bench;
  /// When non-empty, every run_* helper writes its RunReport as one JSON
  /// line here (core::write_report).
  std::string report_json;
  /// When non-empty, every policy run writes its decision provenance as
  /// one JSON line here (core::write_explain).
  std::string explain_out;
  /// Collect per-(task type, object) attribution into the reports
  /// (core::ArtifactOutputs::attribution).
  bool attribution = false;
};

/// Build the machine for a config (platform-a unless spec == "optane").
memsim::Machine make_machine(const BenchConfig& config);

/// Tier pins for the static-placement baselines, resolved from the
/// config's machine — the N-tier-safe spelling of the old kDram/kNvm
/// literals (fastest tier = DRAM, capacity tier = NVM on the two-tier
/// platforms).
memsim::TierId fastest_tier(const BenchConfig& config);
memsim::TierId capacity_tier(const BenchConfig& config);

/// Runtime configuration with virtual backing (simulation only).
core::RuntimeConfig runtime_config(const BenchConfig& config);

/// Optional runtime-feature overrides for ablations.
struct Tweaks {
  bool initial_placement = true;
  bool chunking = true;
  bool adaptive = true;
};

/// Run one workload under one setup; all return the full report.
core::RunReport run_static(const std::string& workload,
                           const BenchConfig& config, memsim::DeviceId tier);
core::RunReport run_tahoe(const std::string& workload,
                          const BenchConfig& config,
                          const core::TahoeOptions& options = {},
                          const Tweaks& tweaks = {});
core::RunReport run_xmem(const std::string& workload,
                         const BenchConfig& config);
core::RunReport run_reactive(const std::string& workload,
                             const BenchConfig& config);

/// Normalization helper: steady-state iteration time relative to the
/// DRAM-only run.
double normalized(const core::RunReport& run, const core::RunReport& dram);

/// Standard flag set: --scale, --csv, --dram-mib, --workers plus the
/// artifact flag set (core::register_artifact_flags).
Flags standard_flags();
/// --scale as a workload scale; any value but test|bench prints an error
/// naming it and exits 2.
workloads::Scale scale_from_flags(const Flags& flags);
/// Builds the config after core::apply_artifact_flags, which checks the
/// output paths and arms the instrumentation before the first run.
BenchConfig config_from_flags(const Flags& flags, const std::string& nvm_spec);

/// Print with the standard bench banner; emits CSV too when requested.
void emit(const std::string& title, const Table& table, bool csv);

}  // namespace tahoe::bench
