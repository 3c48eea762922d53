// Adaptivity example: a workload whose hot data object switches mid-run.
// With adaptivity enabled the runtime notices the per-phase time deviating
// by more than 10%, re-profiles, re-decides, and recovers; with a frozen
// plan the wrong object stays in DRAM forever.
#include <iomanip>
#include <iostream>

#include "common/flags.hpp"
#include "common/units.hpp"
#include "core/artifacts.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "workloads/synthetic.hpp"

namespace {

tahoe::core::RunReport run(bool adaptive, bool attribution) {
  using namespace tahoe;
  core::RuntimeConfig config;
  config.machine = memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(64 * kMiB), 0.5,
                                       4 * kGiB),
      64 * kMiB);
  config.backing = hms::Backing::Virtual;
  config.adaptive = adaptive;
  config.attribution = attribution;
  core::Runtime runtime(config);
  workloads::DriftApp app({48 * kMiB, 8, 18, 9});  // drift at iteration 9
  core::TahoePolicy policy(core::calibrate(runtime.machine()).to_constants());
  return runtime.run(app, policy);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tahoe;
  Flags flags;
  core::register_artifact_flags(flags);
  flags.parse_or_exit(argc, argv);
  const core::ArtifactOutputs artifacts = core::apply_artifact_flags(flags);

  const core::RunReport adaptive = run(true, artifacts.attribution());
  const core::RunReport frozen = run(false, artifacts.attribution());

  std::cout << "iter   adaptive(s)   frozen(s)\n";
  std::cout << std::fixed << std::setprecision(5);
  for (std::size_t i = 0; i < adaptive.iteration_seconds.size(); ++i) {
    std::cout << std::setw(4) << i << "   " << std::setw(10)
              << adaptive.iteration_seconds[i] << "   " << std::setw(9)
              << frozen.iteration_seconds[i]
              << (i == 9 ? "   <- workload drifts here" : "") << "\n";
  }
  std::cout << "\nadaptive re-profiled " << adaptive.reprofiles
            << " time(s); final iteration "
            << frozen.iteration_seconds.back() /
                   adaptive.iteration_seconds.back()
            << "x faster than the frozen plan\n";

  core::write_report(adaptive, artifacts.report_json);
  core::write_explain(adaptive, artifacts.explain_out);
  return 0;
}
