#include "bench_util.hpp"

#include <cstdlib>

#include "baselines/reactive.hpp"
#include "baselines/xmem.hpp"
#include "common/assert.hpp"
#include "core/calibration.hpp"

namespace tahoe::bench {

memsim::Machine make_machine(const BenchConfig& config) {
  memsim::Machine m = [&]() {
    if (config.nvm_spec == "optane") {
      memsim::Machine om = memsim::machines::optane_platform(
          config.dram_capacity);
      om.devices.back().capacity = config.nvm_capacity;
      return om;
    }
    const auto colon = config.nvm_spec.find(':');
    TAHOE_REQUIRE(colon != std::string::npos,
                  "nvm spec must be bw:<f>, lat:<m> or optane");
    const std::string kind = config.nvm_spec.substr(0, colon);
    const double value =
        std::strtod(config.nvm_spec.c_str() + colon + 1, nullptr);
    const memsim::DeviceModel dram =
        memsim::devices::dram(config.dram_capacity);
    if (kind == "bw") {
      return memsim::machines::platform_a(
          memsim::devices::nvm_bw_fraction(dram, value, config.nvm_capacity),
          config.dram_capacity);
    }
    if (kind == "lat") {
      return memsim::machines::platform_a(
          memsim::devices::nvm_lat_multiple(dram, value, config.nvm_capacity),
          config.dram_capacity);
    }
    TAHOE_REQUIRE(false, "unknown nvm spec kind '" + kind + "'");
    return memsim::Machine{};
  }();
  if (config.workers != 0) m.workers = config.workers;
  return m;
}

memsim::TierId fastest_tier(const BenchConfig& config) {
  return make_machine(config).fastest_tier();
}

memsim::TierId capacity_tier(const BenchConfig& config) {
  return make_machine(config).capacity_tier();
}

core::RuntimeConfig runtime_config(const BenchConfig& config) {
  core::RuntimeConfig c;
  c.machine = make_machine(config);
  c.backing = hms::Backing::Virtual;
  c.attribution = config.attribution;
  return c;
}

core::RunReport run_static(const std::string& workload,
                           const BenchConfig& config, memsim::DeviceId tier) {
  core::Runtime rt(runtime_config(config));
  auto app = workloads::make_workload(workload, config.scale);
  core::RunReport report = rt.run_static(*app, tier);
  core::write_report(report, config.report_json);
  return report;
}

core::RunReport run_tahoe(const std::string& workload,
                          const BenchConfig& config,
                          const core::TahoeOptions& options,
                          const Tweaks& tweaks) {
  core::RuntimeConfig rc = runtime_config(config);
  rc.initial_placement = tweaks.initial_placement;
  rc.chunking = tweaks.chunking;
  rc.adaptive = tweaks.adaptive;
  core::Runtime rt(rc);
  auto app = workloads::make_workload(workload, config.scale);
  core::TahoePolicy policy(core::calibrate(rt.machine()).to_constants(),
                           options);
  core::RunReport report = rt.run(*app, policy);
  core::write_report(report, config.report_json);
  core::write_explain(report, config.explain_out);
  return report;
}

core::RunReport run_xmem(const std::string& workload,
                         const BenchConfig& config) {
  core::Runtime rt(runtime_config(config));
  auto app = workloads::make_workload(workload, config.scale);
  baselines::XMemPolicy policy;
  core::RunReport report = rt.run(*app, policy);
  core::write_report(report, config.report_json);
  core::write_explain(report, config.explain_out);
  return report;
}

core::RunReport run_reactive(const std::string& workload,
                             const BenchConfig& config) {
  core::Runtime rt(runtime_config(config));
  auto app = workloads::make_workload(workload, config.scale);
  baselines::ReactiveLruPolicy policy;
  core::RunReport report = rt.run(*app, policy);
  core::write_report(report, config.report_json);
  core::write_explain(report, config.explain_out);
  return report;
}

double normalized(const core::RunReport& run, const core::RunReport& dram) {
  const double base = dram.steady_iteration_seconds();
  TAHOE_REQUIRE(base > 0.0, "degenerate DRAM baseline");
  return run.steady_iteration_seconds() / base;
}

Flags standard_flags() {
  Flags flags;
  flags.define_string("scale", "bench", "problem scale: test | bench");
  flags.define_bool("csv", false, "also emit CSV");
  flags.define_int("dram-mib", 256, "DRAM tier capacity in MiB");
  flags.define_int("workers", 0, "worker override (0 = machine default)");
  core::register_artifact_flags(flags);
  return flags;
}

workloads::Scale scale_from_flags(const Flags& flags) {
  const std::string& scale = flags.get_string("scale");
  if (scale == "test") return workloads::Scale::Test;
  if (scale == "bench") return workloads::Scale::Bench;
  std::cerr << "error: unknown --scale '" << scale
            << "' (expected test or bench)\n";
  std::exit(2);
}

BenchConfig config_from_flags(const Flags& flags, const std::string& nvm_spec) {
  const workloads::Scale scale = scale_from_flags(flags);
  const core::ArtifactOutputs artifacts = core::apply_artifact_flags(flags);
  BenchConfig config;
  config.nvm_spec = nvm_spec;
  config.dram_capacity =
      static_cast<std::uint64_t>(flags.get_int("dram-mib")) * kMiB;
  config.workers = static_cast<std::uint32_t>(flags.get_int("workers"));
  config.scale = scale;
  config.report_json = artifacts.report_json;
  config.explain_out = artifacts.explain_out;
  config.attribution = artifacts.attribution();
  return config;
}

void emit(const std::string& title, const Table& table, bool csv) {
  std::cout << "== " << title << " ==\n";
  table.print(std::cout);
  if (csv) {
    std::cout << "-- csv --\n";
    table.print_csv(std::cout);
  }
  std::cout << '\n';
}

}  // namespace tahoe::bench
