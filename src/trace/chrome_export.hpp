// Chrome trace_event JSON exporter.
//
// Converts drained TraceEvents into the Trace Event Format understood by
// chrome://tracing and Perfetto: one "process" per run, one named thread
// (track) per worker plus the migration/planner/runtime tracks, "X"
// complete events for spans, "i" instants and "C" counters. Timestamps are
// converted from seconds (wall or virtual — the format does not care) to
// the microseconds the format requires.
#pragma once

#include <ostream>
#include <string>

#include "trace/trace.hpp"

namespace tahoe::trace {

/// Serialize `events` (with the given track labels) as a complete Chrome
/// trace JSON document. Besides "traceEvents" the document carries a
/// top-level "tahoe" object ({"schema_version", "dropped_events"}) so
/// post-run analysis can account for ring-buffer overflow drops; viewers
/// ignore unknown top-level keys.
void write_chrome_trace(
    std::ostream& os, const std::vector<TraceEvent>& events,
    const std::vector<std::pair<TrackId, std::string>>& track_names,
    std::uint64_t dropped_events = 0);

/// Drain `tracer` and write its trace to `path`, prepending `retained` —
/// events the telemetry sampler already drained into the flight
/// recorder's ring (FlightRecorder::take_retained) — so a run with both a
/// trace export and an armed flight recorder still exports its full
/// timeline. The exporter sorts by timestamp, so the stitched stream reads
/// identically to a single drain. Unnamed tracks get a generated
/// "track <id>" label. Returns false (after logging a warning) when the
/// file cannot be written.
bool export_chrome_trace(Tracer& tracer, const std::string& path,
                         const std::vector<TraceEvent>& retained = {});

}  // namespace tahoe::trace
