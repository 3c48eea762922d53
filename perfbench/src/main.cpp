// tahoe_perfbench: one workload per invocation; see workloads.hpp.
//
//   tahoe_perfbench --workload sim-grid --seed 1 --seconds 10 --trace 0
//
// Prints the gate outcome, every metric with its unit, sample count and
// clock (host or simulated time), and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "machine_info.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* msg) {
  std::cerr << "tahoe_perfbench: " << msg << "\n"
            << "usage: tahoe_perfbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--quick] [--spans-out PATH]\n"
            << "workloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() &&
         std::isfinite(out);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    double number = 0.0;
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      if (!parse_number(value(), number) || number < 0) {
        return usage("--seed takes a non-negative integer");
      }
      opt.seed = static_cast<std::uint64_t>(number);
    } else if (arg == "--seconds") {
      if (!parse_number(value(), number) || number <= 0 || number > 600) {
        return usage("--seconds takes a number in (0, 600]");
      }
      opt.seconds = number;
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--spans-out") {
      opt.spans_out = value();
    } else {
      return usage(("unknown argument '" + arg + "'").c_str());
    }
  }
  if (opt.workload.empty()) return usage("--workload is required");

  perfbench::Result result;
  try {
    result = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "tahoe_perfbench: " << e.what() << '\n';
    return 3;
  }

  std::cout << "machine: " << perfbench::machine_info().describe() << '\n';
  std::cout << "workload: " << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace
            << (opt.quick ? " quick" : "") << '\n';
  for (const std::string& note : result.notes) std::cout << note << '\n';

  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      std::cout << "warning: " << m.name << " is not finite; reported as 0\n";
      v = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    std::cout << "metric " << m.name << " = " << buf << ' ' << m.unit
              << " (samples=" << m.samples << ", " << m.clock << ")\n";
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " + buf +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}
