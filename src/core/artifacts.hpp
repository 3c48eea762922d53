// Artifact outputs: the one place where a binary's output and
// instrumentation flags become armed instrumentation and written files.
//
// Every bench, example and tool registers the same flag set
// (register_artifact_flags: --report-json, --explain-out, --trace-out, the
// --fault-* set and the --telemetry-*/--slo-*/--flight-* set) and applies
// it once after parsing (apply_artifact_flags). Applying
//   * checks every output path before the first run: an unwritable path
//     exits 2 with a message naming it. The trace and flight files are
//     written later, so only their directory is checked and no empty file
//     is left behind;
//   * arms the fault injector, the latency histograms, the telemetry
//     sampler, the flight recorder (retaining drained events when a trace
//     is exported) and the tracer with its at-exit Chrome export;
//   * says whether per-(task type, object) attribution is wanted.
//
// File mode: each report/explain path is opened and truncated once per
// process, and every write_report / write_explain adds one JSON line and
// flushes it. A failed write names the path and exits 1.
#pragma once

#include <string>

#include "common/flags.hpp"
#include "core/report.hpp"
#include "trace/flight.hpp"
#include "trace/telemetry.hpp"

namespace tahoe::core {

/// Every artifact output of one process.
struct ArtifactOutputs {
  std::string report_json;  ///< one RunReport JSON line per write_report
  std::string explain_out;  ///< one plan-provenance line per write_explain
  std::string trace_out;    ///< Chrome trace, exported at process exit
  trace::TelemetryConfig telemetry;
  trace::FlightRecorder::Config flight;

  /// Attribution rows only feed the report and explain outputs.
  bool attribution() const {
    return !report_json.empty() || !explain_out.empty();
  }
};

/// When arming starts the tracer. Deferred leaves it to start_trace(), for
/// binaries whose timeline covers only part of the process.
enum class TraceStart { Now, Deferred };

void register_artifact_flags(Flags& flags);

/// Read the artifact flags, then arm_artifacts(). Malformed artifact flag
/// values (an unknown telemetry clock, a bad SLO rule) exit 2.
ArtifactOutputs apply_artifact_flags(const Flags& flags,
                                     TraceStart start = TraceStart::Now);

/// Check every output path (exit 2 naming the first unwritable one), open
/// and truncate the report/explain files, and arm the instrumentation.
void arm_artifacts(const ArtifactOutputs& outputs,
                   TraceStart start = TraceStart::Now);

/// Start recording the trace armed with TraceStart::Deferred.
void start_trace();

/// Why `path` cannot be written ("" when it can). Creates nothing: an
/// existing path must be a writable non-directory, a new one needs an
/// existing, writable directory.
std::string output_path_error(const std::string& path);

/// Append `report` with the global registry's counter, gauge and histogram
/// snapshots as one JSON line to `path`; no-op when `path` is empty.
void write_report(const RunReport& report, const std::string& path);

/// Append the report's decision provenance as one JSON line to `path`;
/// no-op when `path` is empty.
void write_explain(const RunReport& report, const std::string& path);

}  // namespace tahoe::core
