// Sparse CG example: conjugate gradient on a CSR matrix. Shows the full
// application lifecycle (allocation through the registry, per-task access
// declarations, verification of the numerical result) and how the planner
// treats the gather-heavy SpMV phase differently from the streaming AXPY
// phases.
#include <iostream>

#include "common/flags.hpp"
#include "common/units.hpp"
#include "core/artifacts.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "workloads/cg.hpp"

int main(int argc, char** argv) {
  using namespace tahoe;

  Flags flags;
  core::register_artifact_flags(flags);
  flags.parse_or_exit(argc, argv);
  const core::ArtifactOutputs artifacts = core::apply_artifact_flags(flags);

  core::RuntimeConfig config;
  config.machine = memsim::machines::platform_a(
      memsim::devices::nvm_lat_multiple(memsim::devices::dram(48 * kMiB), 4.0,
                                        4 * kGiB),
      48 * kMiB);

  // Real solve with verification (residual must drop).
  {
    config.backing = hms::Backing::Real;
    core::Runtime runtime(config);
    workloads::CgApp app(workloads::CgApp::config_for(workloads::Scale::Test));
    const bool converged = runtime.run_real(app, /*schedule=*/{}, 4);
    std::cout << "real CG solve: "
              << (converged ? "residual reduced (verify passed)" : "FAILED")
              << "\n";
  }

  // Simulated comparison on the latency-limited NVM.
  config.backing = hms::Backing::Virtual;
  config.attribution = artifacts.attribution();
  core::Runtime runtime(config);
  workloads::CgApp dram_app(
      workloads::CgApp::config_for(workloads::Scale::Test));
  workloads::CgApp nvm_app(workloads::CgApp::config_for(workloads::Scale::Test));
  workloads::CgApp tahoe_app(
      workloads::CgApp::config_for(workloads::Scale::Test));

  const core::RunReport dram = runtime.run_static(dram_app, memsim::kDram);
  const core::RunReport nvm = runtime.run_static(nvm_app, memsim::kNvm);
  core::TahoePolicy policy(core::calibrate(runtime.machine()).to_constants());
  const core::RunReport tahoe = runtime.run(tahoe_app, policy);

  std::cout << "CG on 4x-latency NVM (normalized to DRAM-only)\n"
            << "  NVM-only: "
            << nvm.steady_iteration_seconds() / dram.steady_iteration_seconds()
            << "x\n"
            << "  Tahoe   : "
            << tahoe.steady_iteration_seconds() /
                   dram.steady_iteration_seconds()
            << "x  (strategy " << tahoe.strategy << ", runtime overhead "
            << tahoe.runtime_cost_fraction() * 100.0 << "%)\n";

  core::write_report(tahoe, artifacts.report_json);
  core::write_explain(tahoe, artifacts.explain_out);
  return 0;
}
