// Artifact outputs: the up-front path check and the checked, truncate-once
// report/explain writes every binary goes through.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/artifacts.hpp"
#include "trace/json.hpp"

namespace tahoe::core {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "tahoe_artifacts_" + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream is(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

RunReport sample_report() {
  RunReport r;
  r.workload = "cg";
  r.policy = "tahoe";
  r.strategy = "global";
  r.iteration_seconds = {2.0, 1.0};
  return r;
}

TEST(ArtifactPaths, NewFileInWritableDirectoryPassesAndIsNotCreated) {
  const std::string path = temp_path("fresh.json");
  fs::remove(path);
  EXPECT_EQ(output_path_error(path), "");
  EXPECT_FALSE(fs::exists(path));
}

TEST(ArtifactPaths, MissingDirectoryIsNamed) {
  const std::string dir = temp_path("no-such-dir");
  fs::remove_all(dir);
  const std::string why = output_path_error(dir + "/r.json");
  EXPECT_NE(why.find(dir), std::string::npos) << why;
  EXPECT_FALSE(fs::exists(dir));
}

TEST(ArtifactPaths, DirectoryAndFileParentAreRejected) {
  const std::string dir = temp_path("a-dir");
  fs::create_directories(dir);
  EXPECT_EQ(output_path_error(dir), "is a directory");
  const std::string file = temp_path("a-file");
  std::ofstream(file) << "x";
  EXPECT_NE(output_path_error(file + "/r.json"), "");
  EXPECT_EQ(output_path_error(file), "");  // an existing writable file
}

TEST(ArtifactWrites, TruncateOnceThenOneLinePerWrite) {
  const std::string path = temp_path("report.jsonl");
  std::ofstream(path) << "stale line from an earlier process\n";
  const RunReport r = sample_report();
  write_report(r, path);
  write_explain(r, path);
  write_report(r, path);
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(trace::parse_json(lines[0]).at("workload").string, "cg");
  EXPECT_TRUE(trace::parse_json(lines[1]).is_object());
  EXPECT_EQ(lines[0].substr(0, 40), lines[2].substr(0, 40));
}

TEST(ArtifactWrites, EmptyPathIsANoOp) {
  write_report(sample_report(), "");
  write_explain(sample_report(), "");
}

TEST(ArtifactWritesDeathTest, FailedWriteNamesPathAndExitsNonzero) {
  // /dev/full opens fine and fails every write.
  EXPECT_EXIT(write_report(sample_report(), "/dev/full"),
              ::testing::ExitedWithCode(1), "report output '/dev/full'");
  EXPECT_EXIT(write_explain(sample_report(), "/dev/full"),
              ::testing::ExitedWithCode(1), "explain output '/dev/full'");
}

TEST(ArtifactArmDeathTest, UnwritablePathExitsTwoBeforeCreatingAnyFile) {
  const std::string explain = temp_path("arm-explain.jsonl");
  fs::remove(explain);
  const std::string missing = temp_path("arm-missing") + "/trace.json";
  fs::remove_all(temp_path("arm-missing"));
  ArtifactOutputs outputs;
  outputs.explain_out = explain;
  outputs.trace_out = missing;
  EXPECT_EXIT(arm_artifacts(outputs), ::testing::ExitedWithCode(2),
              "trace output '" + missing + "'");
  EXPECT_FALSE(fs::exists(explain));
}

TEST(ArtifactOutputs, AttributionFollowsReportAndExplainOnly) {
  ArtifactOutputs outputs;
  outputs.trace_out = "t.json";
  outputs.telemetry.out_path = "t.jsonl";
  EXPECT_FALSE(outputs.attribution());
  outputs.explain_out = "e.jsonl";
  EXPECT_TRUE(outputs.attribution());
}

}  // namespace
}  // namespace tahoe::core
