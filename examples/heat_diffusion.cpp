// Heat diffusion example: a real 2-D Jacobi solver running its kernels on
// real memory through the real executor, with helper-thread migrations
// driven by a Tahoe decision — then the same application on the simulated
// timing path for the DRAM/NVM comparison.
#include <iostream>

#include "common/flags.hpp"
#include "common/units.hpp"
#include "core/artifacts.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "workloads/heat.hpp"

int main(int argc, char** argv) {
  using namespace tahoe;

  Flags flags;
  core::register_artifact_flags(flags);
  flags.parse_or_exit(argc, argv);
  const core::ArtifactOutputs artifacts = core::apply_artifact_flags(flags);

  core::RuntimeConfig config;
  config.machine = memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(64 * kMiB), 0.5,
                                       4 * kGiB),
      64 * kMiB);

  // ---- real execution: kernels, registry, helper-thread migration ----
  {
    config.backing = hms::Backing::Real;
    core::Runtime runtime(config);
    workloads::HeatApp app(
        workloads::HeatApp::config_for(workloads::Scale::Test));
    const bool ok = runtime.run_real(app, /*schedule=*/{}, 4);
    std::cout << "real 2-D Jacobi run: "
              << (ok ? "converging (verify passed)" : "FAILED") << "\n";
  }

  // ---- simulated timing: DRAM-only vs NVM-only vs Tahoe ----
  config.backing = hms::Backing::Virtual;
  config.attribution = artifacts.attribution();
  core::Runtime runtime(config);
  workloads::HeatApp dram_app(
      workloads::HeatApp::config_for(workloads::Scale::Test));
  workloads::HeatApp nvm_app(
      workloads::HeatApp::config_for(workloads::Scale::Test));
  workloads::HeatApp tahoe_app(
      workloads::HeatApp::config_for(workloads::Scale::Test));

  const core::RunReport dram = runtime.run_static(dram_app, memsim::kDram);
  const core::RunReport nvm = runtime.run_static(nvm_app, memsim::kNvm);
  core::TahoePolicy policy(core::calibrate(runtime.machine()).to_constants());
  const core::RunReport tahoe = runtime.run(tahoe_app, policy);

  std::cout << "simulated steady-state iteration time\n"
            << "  DRAM-only: " << dram.steady_iteration_seconds() << " s\n"
            << "  NVM-only : " << nvm.steady_iteration_seconds() << " s ("
            << nvm.steady_iteration_seconds() /
                   dram.steady_iteration_seconds()
            << "x)\n"
            << "  Tahoe    : " << tahoe.steady_iteration_seconds() << " s ("
            << tahoe.steady_iteration_seconds() /
                   dram.steady_iteration_seconds()
            << "x, strategy " << tahoe.strategy << ", "
            << tahoe.migrations << " migrations, "
            << to_mib(tahoe.bytes_moved) << " MiB moved)\n";

  core::write_report(tahoe, artifacts.report_json);
  core::write_explain(tahoe, artifacts.explain_out);
  return 0;
}
