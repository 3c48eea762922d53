// tahoe_inspect: post-run analyzer for Tahoe-TP trace/report artifacts.
//
//   tahoe_inspect --trace=run.trace.json
//                 [--report=run.report.json] [--explain=run.explain.json]
//                 [--format=table|json] [--out=analysis.json]
//   tahoe_inspect --timeline=run.telemetry.jsonl [--format=table|json]
//   tahoe_inspect --report=run.report.json --segment-stats
//                 [--format=table|json]
//
// Loads the Chrome trace (plus optional run report and --explain-out
// documents), computes the DAG critical path, migration-overlap
// efficiency, per-worker utilization and the placement rationale of the
// final plan, and renders them as aligned tables (default) or as one
// deterministic JSON object suitable for golden comparisons.
//
// --timeline mode instead reads a --telemetry-out JSONL stream and renders
// per-interval task/byte rates with phase boundaries and SLO-breach
// markers inline.
//
// --segment-stats mode reads only the report and renders the storage
// layer's hms.segment.* digest: slot-table occupancy, segment metadata
// bytes, allocator freelist levels and per-arena range-list footprints.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "common/flags.hpp"
#include "trace/analyze.hpp"
#include "trace/json.hpp"

namespace {

std::optional<tahoe::trace::JsonValue> load_json(const std::string& path,
                                                 const char* what) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "tahoe_inspect: cannot open " << what << " file '" << path
              << "'\n";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  try {
    return tahoe::trace::parse_json(buf.str());
  } catch (const std::exception& e) {
    std::cerr << "tahoe_inspect: failed to parse " << what << " '" << path
              << "': " << e.what() << '\n';
    return std::nullopt;
  }
}

}  // namespace

int main(int argc, char** argv) {
  tahoe::Flags flags;
  flags.define_string("trace", "", "Chrome trace JSON (required unless "
                                   "--timeline is given)");
  flags.define_string("report", "", "run report JSON (optional)");
  flags.define_string("explain", "", "planner --explain-out JSON (optional)");
  flags.define_string("timeline", "",
                      "telemetry JSONL stream (--telemetry-out); renders "
                      "interval rates, phases and breach markers instead of "
                      "the trace analysis");
  flags.define_bool("segment-stats", false,
                    "render the hms.segment.* storage-layer digest from "
                    "--report (slot table, metadata bytes, freelists, "
                    "per-arena range lists) instead of the trace analysis");
  flags.define_string("format", "table", "output format: table or json");
  flags.define_string("out", "", "write output to this file instead of stdout");

  flags.parse_or_exit(argc, argv);
  const std::string trace_path = flags.get_string("trace");
  const std::string timeline_path = flags.get_string("timeline");
  const std::string format = flags.get_string("format");
  const bool segment_stats = flags.get_bool("segment-stats");
  if (trace_path.empty() && timeline_path.empty() && !segment_stats) {
    std::cerr << "tahoe_inspect: --trace, --timeline or --segment-stats is "
                 "required\n"
              << flags.usage(argv[0]);
    return 2;
  }
  if (format != "table" && format != "json") {
    std::cerr << "tahoe_inspect: --format must be 'table' or 'json'\n";
    return 2;
  }

  if (segment_stats && flags.get_string("report").empty()) {
    std::cerr << "tahoe_inspect: --segment-stats requires --report\n";
    return 2;
  }

  // One output for every mode, opened before any input is read.
  std::ofstream file_out;
  if (!flags.get_string("out").empty()) {
    file_out.open(flags.get_string("out"));
    if (!file_out) {
      std::cerr << "tahoe_inspect: cannot open output file '"
                << flags.get_string("out") << "'\n";
      return 1;
    }
  }
  std::ostream& os = file_out.is_open() ? file_out : std::cout;

  if (segment_stats) {
    const auto report = load_json(flags.get_string("report"), "report");
    if (!report) return 1;
    const tahoe::trace::SegmentStats stats =
        tahoe::trace::analyze_segment_stats(*report);
    if (format == "json") {
      tahoe::trace::write_segment_stats_json(os, stats);
    } else {
      tahoe::trace::write_segment_stats_table(os, stats);
    }
    return 0;
  }

  if (!timeline_path.empty()) {
    std::ifstream is(timeline_path);
    if (!is) {
      std::cerr << "tahoe_inspect: cannot open timeline file '"
                << timeline_path << "'\n";
      return 1;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    tahoe::trace::Timeline timeline;
    try {
      timeline = tahoe::trace::analyze_timeline(buf.str());
    } catch (const std::exception& e) {
      std::cerr << "tahoe_inspect: failed to parse timeline '"
                << timeline_path << "': " << e.what() << '\n';
      return 1;
    }
    if (format == "json") {
      tahoe::trace::write_timeline_json(os, timeline);
    } else {
      tahoe::trace::write_timeline_table(os, timeline);
    }
    return 0;
  }

  const auto trace_doc = load_json(trace_path, "trace");
  if (!trace_doc) return 1;

  std::optional<tahoe::trace::JsonValue> report;
  if (!flags.get_string("report").empty()) {
    report = load_json(flags.get_string("report"), "report");
    if (!report) return 1;
  }
  std::optional<tahoe::trace::JsonValue> explain;
  if (!flags.get_string("explain").empty()) {
    explain = load_json(flags.get_string("explain"), "explain");
    if (!explain) return 1;
  }

  const tahoe::trace::Analysis analysis =
      tahoe::trace::analyze(*trace_doc, report ? &*report : nullptr,
                            explain ? &*explain : nullptr);

  if (format == "json") {
    tahoe::trace::write_analysis_json(os, analysis);
  } else {
    tahoe::trace::write_analysis_tables(os, analysis);
  }
  return 0;
}
