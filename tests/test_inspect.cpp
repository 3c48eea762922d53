// Analyzer tests: the trace -> analysis pipeline behind tahoe_inspect.
// Builds synthetic traces through the real Tracer + chrome exporter, then
// checks the derived critical path, overlap accounting, worker lanes, the
// ring-overflow drop count round-trip, and the explain/report echoes.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/units.hpp"
#include "core/report.hpp"
#include "hms/registry.hpp"
#include "trace/analyze.hpp"
#include "trace/chrome_export.hpp"
#include "trace/counters.hpp"
#include "trace/json.hpp"
#include "trace/trace.hpp"

namespace tahoe::trace {
namespace {

JsonValue exported(Tracer& tracer) {
  std::ostringstream os;
  write_chrome_trace(os, tracer.drain(), tracer.track_names(),
                     tracer.dropped());
  return parse_json(os.str());
}

// Two phases, two workers, one partly-exposed migration — every derived
// quantity is checkable by hand.
TEST(Analyze, SyntheticTraceDerivesKnownQuantities) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_track_name(0, "worker 0");
  tracer.set_track_name(1, "worker 1");
  tracer.complete(kRuntimeTrack, "group build", 0.0, 1.0);
  tracer.complete(kRuntimeTrack, "group apply", 1.2, 0.8);
  tracer.complete(0, "build", 0.1, 0.4, "task", 1);
  tracer.complete(1, "build", 0.2, 0.6, "task", 2);
  tracer.complete(0, "apply", 1.3, 0.5, "task", 3);
  tracer.complete(kRuntimeTrack, "migration-stall", 1.0, 0.2);
  tracer.complete(kMigrationTrack, "migrate", 0.5, 0.3, "bytes", 1000);
  // Instants and counters carry no duration and must not perturb anything.
  tracer.instant(kPlannerTrack, "decision", 0.4, "cost_us", 123456);
  tracer.counter(kRuntimeTrack, "migrate.queue_depth", 0.5, 1);

  const JsonValue doc = exported(tracer);
  const Analysis a = analyze(doc, nullptr, nullptr);

  EXPECT_EQ(a.schema_version, 2u);
  EXPECT_EQ(a.dropped_events, 0u);
  EXPECT_NEAR(a.makespan_seconds, 2.0, 1e-9);
  EXPECT_EQ(a.group_spans, 2u);
  EXPECT_EQ(a.task_spans, 3u);
  // Critical path: longest task per group (0.6 + 0.5) + exposed stall 0.2.
  EXPECT_NEAR(a.critical_path_seconds, 1.3, 1e-9);
  EXPECT_NEAR(a.critical_path_fraction, 0.65, 1e-9);
  EXPECT_NEAR(a.copy_busy_seconds, 0.3, 1e-9);
  EXPECT_NEAR(a.stall_seconds, 0.2, 1e-9);
  EXPECT_NEAR(a.overlap_efficiency, (0.3 - 0.2) / 0.3, 1e-9);
  EXPECT_EQ(a.migrations, 1u);
  EXPECT_EQ(a.bytes_moved, 1000u);

  ASSERT_EQ(a.workers.size(), 2u);
  EXPECT_EQ(a.workers[0].name, "worker 0");
  EXPECT_EQ(a.workers[0].tasks, 2u);
  EXPECT_NEAR(a.workers[0].busy_seconds, 0.9, 1e-9);
  EXPECT_NEAR(a.workers[0].utilization, 0.45, 1e-9);
  EXPECT_EQ(a.workers[1].name, "worker 1");
  EXPECT_NEAR(a.workers[1].busy_seconds, 0.6, 1e-9);
}

TEST(Analyze, EmptyTraceYieldsZeroes) {
  Tracer tracer;  // enabled=false, nothing recorded
  const JsonValue doc = exported(tracer);
  const Analysis a = analyze(doc, nullptr, nullptr);
  EXPECT_EQ(a.makespan_seconds, 0.0);
  EXPECT_EQ(a.critical_path_seconds, 0.0);
  EXPECT_EQ(a.migrations, 0u);
  EXPECT_EQ(a.overlap_efficiency, 1.0);  // nothing moved = nothing exposed
  EXPECT_TRUE(a.workers.empty());
}

TEST(Analyze, RejectedMigrationsDoNotCountAsCopies) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.complete(kMigrationTrack, "migrate rejected", 0.0, 0.1);
  tracer.complete(kMigrationTrack, "migrate", 0.2, 0.1, "bytes", 64);
  const Analysis a = analyze(exported(tracer), nullptr, nullptr);
  EXPECT_EQ(a.migrations, 1u);
  EXPECT_EQ(a.bytes_moved, 64u);
  EXPECT_NEAR(a.copy_busy_seconds, 0.1, 1e-9);
}

TEST(Analyze, RingOverflowDropCountRoundTrips) {
  // A deliberately tiny ring: most events drop, the exporter writes the
  // drop count into the "tahoe" metadata, and the analyzer surfaces it —
  // overflow is visible in the artifact, never silent.
  Tracer tracer(/*ring_capacity=*/8);
  tracer.set_enabled(true);
  for (int i = 0; i < 100; ++i) {
    tracer.complete(0, "spam", 0.001 * i, 0.0005, "task",
                    static_cast<std::uint64_t>(i));
  }
  const std::uint64_t dropped = tracer.dropped();
  EXPECT_GT(dropped, 0u);

  const JsonValue doc = exported(tracer);
  const Analysis a = analyze(doc, nullptr, nullptr);
  EXPECT_EQ(a.dropped_events, dropped);
  // The surviving events are still analyzable.
  EXPECT_EQ(a.task_spans + a.dropped_events, 100u);
}

TEST(Analyze, ReportAndExplainSectionsAreEchoed) {
  core::RunReport report;
  report.workload = "unit";
  report.policy = "tahoe";
  report.strategy = "global";

  core::PlanRecord plan;
  plan.iteration = 3;
  plan.strategy = "global";
  plan.local_gain = 0.25;
  plan.global_gain = 0.5;
  plan.predicted_gain = 0.5;
  core::PlanCandidate cand;
  cand.object = "index";
  cand.object_id = 7;
  cand.pass = "global";
  cand.sensitivity = "latency";
  cand.benefit = 0.5;
  cand.value = 0.5;
  cand.bytes = 1024;
  cand.accepted = true;
  cand.reason = "selected";
  plan.candidates.push_back(cand);
  cand.object = "table";
  cand.accepted = false;
  cand.reason = "capacity";
  plan.candidates.push_back(cand);
  report.plans.push_back(plan);

  std::ostringstream ros;
  report.write_json(ros);
  std::ostringstream eos;
  report.write_explain_json(eos);
  const JsonValue rdoc = parse_json(ros.str());
  const JsonValue edoc = parse_json(eos.str());

  Tracer tracer;
  const JsonValue tdoc = exported(tracer);
  const Analysis a = analyze(tdoc, &rdoc, &edoc);

  EXPECT_TRUE(a.has_report);
  EXPECT_EQ(a.workload, "unit");
  EXPECT_EQ(a.policy, "tahoe");
  EXPECT_EQ(a.strategy, "global");
  EXPECT_TRUE(a.has_explain);
  EXPECT_DOUBLE_EQ(a.local_gain, 0.25);
  EXPECT_DOUBLE_EQ(a.global_gain, 0.5);
  ASSERT_EQ(a.rationale.size(), 2u);
  EXPECT_EQ(a.rationale[0].object, "index");
  EXPECT_TRUE(a.rationale[0].accepted);
  EXPECT_EQ(a.rationale[1].reason, "capacity");
  EXPECT_EQ(a.rationale[1].bytes, 1024u);
}

TEST(SegmentStats, DigestParsesCountersGaugesAndArenaRows) {
  core::RunReport report;
  report.workload = "unit";
  std::ostringstream os;
  report.write_json(
      os,
      {{"hms.segment.allocs", 12}, {"hms.segment.frees", 5}, {"other", 9}},
      {{"hms.segment.arena.dram.free_ranges", 1},
       {"hms.segment.arena.dram.meta_bytes", 96},
       {"hms.segment.arena.nvm.free_ranges", 2},
       {"hms.segment.arena.nvm.meta_bytes", 144},
       {"hms.segment.bytes_capacity", 1024},
       {"hms.segment.bytes_used", 512},
       {"hms.segment.freelist_blocks", 3},
       {"hms.segment.freelist_bytes", 192},
       {"hms.segment.slot_capacity", 65536},
       {"hms.segment.slots_live", 7},
       {"unrelated.gauge", 1}});
  const SegmentStats s = analyze_segment_stats(parse_json(os.str()));

  EXPECT_TRUE(s.present);
  EXPECT_EQ(s.allocs, 12u);
  EXPECT_EQ(s.frees, 5u);
  EXPECT_EQ(s.slots_live, 7u);
  EXPECT_EQ(s.slot_capacity, 65536u);
  EXPECT_EQ(s.bytes_used, 512u);
  EXPECT_EQ(s.bytes_capacity, 1024u);
  EXPECT_DOUBLE_EQ(s.occupancy(), 0.5);
  EXPECT_EQ(s.freelist_blocks, 3u);
  EXPECT_EQ(s.freelist_bytes, 192u);
  ASSERT_EQ(s.arenas.size(), 2u);
  EXPECT_EQ(s.arenas[0].name, "dram");
  EXPECT_EQ(s.arenas[0].meta_bytes, 96u);
  EXPECT_EQ(s.arenas[0].free_ranges, 1u);
  EXPECT_EQ(s.arenas[1].name, "nvm");
  EXPECT_EQ(s.arenas[1].meta_bytes, 144u);

  // Rendering is deterministic and carries the schema tag.
  std::ostringstream j1;
  std::ostringstream j2;
  write_segment_stats_json(j1, s);
  write_segment_stats_json(j2, s);
  EXPECT_EQ(j1.str(), j2.str());
  EXPECT_NE(j1.str().find("\"tahoe_segment_stats_v1\""), std::string::npos);
  std::ostringstream table;
  write_segment_stats_table(table, s);
  EXPECT_NE(table.str().find("dram"), std::string::npos);
}

TEST(SegmentStats, ReportsWithoutSegmentMetricsAreAbsent) {
  core::RunReport report;
  std::ostringstream os;
  report.write_json(os, {{"executor.tasks", 4}}, {{"queue.depth", 2}});
  const SegmentStats s = analyze_segment_stats(parse_json(os.str()));
  EXPECT_FALSE(s.present);
  EXPECT_TRUE(s.arenas.empty());
  std::ostringstream table;
  write_segment_stats_table(table, s);
  EXPECT_NE(table.str().find("no hms.segment."), std::string::npos);
}

TEST(SegmentStats, LiveRegistryGaugesRoundTripThroughAReport) {
  // End to end: a real registry publishes its gauges, a report snapshots
  // them, and the digest reconstructs the registry's state.
  hms::ObjectRegistry reg({256 * kKiB, 4 * kMiB}, hms::Backing::Virtual);
  reg.create("a", 16 * kKiB, 0, 2);
  reg.create("b", 8 * kKiB, 1, 1);

  core::RunReport report;
  std::ostringstream os;
  report.write_json(os, global_counters().snapshot_counters(),
                    global_counters().snapshot_gauges());
  const SegmentStats s = analyze_segment_stats(parse_json(os.str()));

  EXPECT_TRUE(s.present);
  EXPECT_EQ(s.slots_live, reg.num_objects());
  EXPECT_EQ(s.slot_capacity, hms::ObjectRegistry::kDefaultSlotCapacity);
  EXPECT_EQ(s.bytes_capacity, reg.segment().size());
  EXPECT_EQ(s.bytes_used, reg.segment().used());
  EXPECT_GE(s.allocs, reg.segment().live_allocations());
  // Both tier arenas publish their range-list footprint.
  ASSERT_GE(s.arenas.size(), 2u);
  for (const SegmentArenaRow& row : s.arenas) {
    EXPECT_GT(row.meta_bytes, 0u) << row.name;
    EXPECT_GE(row.free_ranges, 1u) << row.name;
  }
}

TEST(Analyze, JsonRenderingIsDeterministic) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.complete(kRuntimeTrack, "group g", 0.0, 1.0);
  tracer.complete(0, "t", 0.0, 0.75, "task", 1);
  const JsonValue doc = exported(tracer);
  const Analysis a = analyze(doc, nullptr, nullptr);

  std::ostringstream o1;
  std::ostringstream o2;
  write_analysis_json(o1, a);
  write_analysis_json(o2, a);
  EXPECT_EQ(o1.str(), o2.str());
  EXPECT_NE(o1.str().find("\"critical_path_seconds\":"), std::string::npos);
  EXPECT_NE(o1.str().find("\"overlap_efficiency\":"), std::string::npos);
  EXPECT_EQ(o1.str().back(), '\n');
}

// A hostile trace nested far past the JSON parser's depth limit must be
// rejected with a message and a nonzero exit, not crash the analyzer.
TEST(InspectBinary, DeeplyNestedTraceExitsWithMessage) {
  const std::string trace = ::testing::TempDir() + "deep_trace.json";
  const std::string err = ::testing::TempDir() + "deep_trace.err";
  {
    std::ofstream os(trace);
    os << std::string(200000, '[');
  }
  const std::string cmd = std::string(TAHOE_INSPECT_BIN) + " --trace=" +
                          trace + " > /dev/null 2> " + err;
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << "tahoe_inspect died: " << status;
  EXPECT_NE(WEXITSTATUS(status), 0);
  std::ifstream is(err);
  std::stringstream msg;
  msg << is.rdbuf();
  EXPECT_NE(msg.str().find("nesting deeper than"), std::string::npos)
      << msg.str();
  std::remove(trace.c_str());
  std::remove(err.c_str());
}

}  // namespace
}  // namespace tahoe::trace
