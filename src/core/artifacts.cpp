#include "core/artifacts.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>

#include "common/assert.hpp"
#include "common/fault.hpp"
#include "trace/chrome_export.hpp"
#include "trace/counters.hpp"
#include "trace/histogram.hpp"
#include "trace/trace.hpp"

namespace tahoe::core {
namespace {

/// Armed trace export destination ("" = none).
std::string trace_path;

/// The process's open report/explain files, keyed by path: the first use
/// opens and truncates, later lines append to the same stream.
std::ofstream* open_file(const std::string& path) {
  static std::map<std::string, std::ofstream> files;
  auto [it, inserted] = files.try_emplace(path);
  if (inserted) it->second.open(path, std::ios::out | std::ios::trunc);
  return it->second.is_open() ? &it->second : nullptr;
}

[[noreturn]] void reject(const char* what, const std::string& path,
                         const std::string& why, int code) {
  std::cerr << "error: cannot write " << what << " output '" << path << "'"
            << (why.empty() ? "" : ": " + why) << '\n';
  std::exit(code);
}

template <typename Body>
void write_line(const char* what, const std::string& path, Body body) {
  if (path.empty()) return;
  std::ofstream* os = open_file(path);
  if (os == nullptr) reject(what, path, "", 1);
  body(*os);
  *os << '\n';
  os->flush();
  if (!*os) reject(what, path, "", 1);
}

void export_trace_at_exit() {
  if (!trace::export_chrome_trace(trace::global(), trace_path,
                                  trace::flight().take_retained())) {
    // exit() from an exit handler is undefined and _Exit skips the stdio
    // flush, so flush stdout by hand.
    std::cout.flush();
    std::cerr << "error: cannot write trace output '" << trace_path << "'\n";
    std::_Exit(1);
  }
}

}  // namespace

void register_artifact_flags(Flags& flags) {
  flags.define_string("trace-out", "",
                      "write a Chrome trace_event JSON timeline here "
                      "(open in chrome://tracing or Perfetto)");
  flags.define_string("report-json", "",
                      "write each run's RunReport as one JSON line here");
  flags.define_string("explain-out", "",
                      "write each policy run's plan provenance (candidates, "
                      "weights, accept/reject reasons) as one JSON line here");
  fault::register_flags(flags);
  trace::register_telemetry_flags(flags);
}

ArtifactOutputs apply_artifact_flags(const Flags& flags, TraceStart start) {
  try {
    ArtifactOutputs out;
    out.report_json = flags.get_string("report-json");
    out.explain_out = flags.get_string("explain-out");
    out.trace_out = flags.get_string("trace-out");
    out.telemetry = trace::telemetry_config_from_flags(flags);
    out.flight.out_path = flags.get_string("flight-out");
    TAHOE_REQUIRE(flags.get_int("flight-events") >= 0 &&
                      flags.get_int("flight-intervals") >= 0,
                  "--flight-events and --flight-intervals must be >= 0");
    out.flight.max_events =
        static_cast<std::size_t>(flags.get_int("flight-events"));
    out.flight.max_intervals =
        static_cast<std::size_t>(flags.get_int("flight-intervals"));
    arm_artifacts(out, start);
    // Chaos runs: arm the seeded injector when any --fault-* rate is set.
    fault::configure_from_flags(flags);
    return out;
  } catch (const ContractError& e) {
    std::cerr << "error: " << e.message() << '\n';
    std::exit(2);
  }
}

void arm_artifacts(const ArtifactOutputs& out, TraceStart start) {
  const std::pair<const char*, const std::string&> outputs[] = {
      {"report", out.report_json},
      {"explain", out.explain_out},
      {"trace", out.trace_out},
      {"telemetry", out.telemetry.out_path},
      {"flight", out.flight.out_path}};
  for (const auto& [what, path] : outputs) {
    if (path.empty()) continue;
    const std::string why = output_path_error(path);
    if (!why.empty()) reject(what, path, why, 2);
  }
  // Only then truncate the report and explain files, once per process.
  for (const auto& [what, path] : {outputs[0], outputs[1]}) {
    if (!path.empty() && open_file(path) == nullptr) {
      reject(what, path, std::strerror(errno), 2);
    }
  }

  // Flight first: the sampler's activation check consults armed(). Retain
  // drained events when a trace export is pending, so the export still
  // sees the whole timeline.
  if (out.flight.out_path.empty()) {
    trace::flight().disarm();
  } else {
    trace::FlightRecorder::Config flight = out.flight;
    flight.retain_events = !out.trace_out.empty();
    trace::flight().configure(flight);
  }

  // Latency histograms ride along with every artifact output; they are off
  // otherwise so uninstrumented runs pay only a relaxed load per site.
  if (out.attribution() || !out.trace_out.empty() ||
      !out.telemetry.out_path.empty()) {
    trace::set_histograms_enabled(true);
  }

  if (!out.trace_out.empty()) {
    // One export at process exit, so one invocation (possibly many runs)
    // yields one timeline. The tracer is touched before the hook is
    // registered so it outlives the hook.
    trace::Tracer& tracer = trace::global();
    if (start == TraceStart::Now) tracer.set_enabled(true);
    const bool hooked = !trace_path.empty();
    trace_path = out.trace_out;
    if (!hooked) std::atexit(export_trace_at_exit);
  }

  trace::telemetry().configure(out.telemetry);
  if (trace::telemetry().enabled()) {
    static bool hooked = false;
    if (!hooked) {
      hooked = true;
      std::atexit([] { trace::telemetry().shutdown(); });
    }
  }
}

void start_trace() {
  if (!trace_path.empty()) trace::global().set_enabled(true);
}

std::string output_path_error(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0) {
    if (S_ISDIR(st.st_mode)) return "is a directory";
    if (::access(path.c_str(), W_OK) != 0) return std::strerror(errno);
    return "";
  }
  if (errno != ENOENT) return std::strerror(errno);
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  if (::stat(dir.c_str(), &st) != 0) {
    return "directory '" + dir + "': " + std::strerror(errno);
  }
  if (!S_ISDIR(st.st_mode)) return "'" + dir + "' is not a directory";
  if (::access(dir.c_str(), W_OK | X_OK) != 0) {
    return "directory '" + dir + "': " + std::strerror(errno);
  }
  return "";
}

void write_report(const RunReport& report, const std::string& path) {
  write_line("report", path, [&](std::ostream& os) {
    // Split snapshots: gauges and histograms land in their own JSON
    // objects so diffing the monotonic counters stays deterministic.
    auto& reg = trace::global_counters();
    report.write_json(os, reg.snapshot_counters(), reg.snapshot_gauges(),
                      reg.snapshot_histograms());
  });
}

void write_explain(const RunReport& report, const std::string& path) {
  write_line("explain", path,
             [&](std::ostream& os) { report.write_explain_json(os); });
}

}  // namespace tahoe::core
