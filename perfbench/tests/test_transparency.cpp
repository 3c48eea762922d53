// The benchmark's own tests: its timing wrappers must not change what the
// program computes, and its span bookkeeping must be exact.
#include <gtest/gtest.h>

#include <sstream>

#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "hooks.hpp"
#include "spans.hpp"
#include "workloads.hpp"
#include "workloads/common.hpp"
#include "workloads/heat.hpp"

namespace {

using namespace tahoe;

std::string to_json(const core::RunReport& report) {
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

core::RuntimeConfig sim_config() {
  core::RuntimeConfig rc;
  rc.machine = perfbench::grid_machine("bw:0.5", 256 * kMiB);
  rc.backing = hms::Backing::Virtual;
  rc.attribution = true;
  // The measured planning cost is the one wall-clock field of a report.
  rc.fixed_decision_seconds = 0.0;
  return rc;
}

TEST(WrapperTransparency, SimulatedCgReportIsByteIdentical) {
  const core::RuntimeConfig rc = sim_config();
  const core::ModelConstants constants =
      core::calibrate(rc.machine).to_constants();

  core::Runtime plain_rt(rc);
  auto plain_app = workloads::make_workload("cg", workloads::Scale::Bench);
  core::TahoePolicy plain_policy(constants);
  const std::string plain = to_json(plain_rt.run(*plain_app, plain_policy));

  core::Runtime rt(rc);
  auto app = workloads::make_workload("cg", workloads::Scale::Bench);
  core::TahoePolicy policy(constants);
  perfbench::CallLog log;
  perfbench::SpanRecorder spans;
  perfbench::TimedApplication tapp(*app, log, &spans, 1);
  perfbench::TimedPolicy tpolicy(policy, log, &spans, 1);
  const std::string wrapped = to_json(rt.run(tapp, tpolicy));

  EXPECT_EQ(plain, wrapped);
  EXPECT_EQ(log.setup.size(), 1u);
  EXPECT_EQ(log.build.size(), app->iterations());
  EXPECT_GE(log.decide.size(), 1u);
  EXPECT_FALSE(log.last_schedule.empty());
  EXPECT_EQ(spans.spans().size(), 1 + app->iterations() + log.decide.size());
}

TEST(WrapperTransparency, RealHeatReportIsByteIdentical) {
  core::RuntimeConfig rc;
  rc.machine = perfbench::grid_machine("bw:0.5", 64 * kMiB);
  rc.backing = hms::Backing::Real;
  rc.fixed_decision_seconds = 0.0;
  const workloads::HeatApp::Config config =
      workloads::HeatApp::config_for(workloads::Scale::Test);

  // Promote every chunk at group 0 and demote it again at group 2.
  hms::ObjectRegistry probe_registry({64 * kMiB, 4 * kGiB},
                                     hms::Backing::Virtual);
  workloads::HeatApp probe(config);
  probe.setup(probe_registry, hms::ChunkingPolicy{});
  std::vector<task::ScheduledCopy> schedule;
  for (const hms::ObjectId id : probe_registry.live_objects()) {
    const hms::DataObject& obj = probe_registry.get(id);
    for (std::size_t c = 0; c < obj.num_chunks(); ++c) {
      schedule.push_back(task::ScheduledCopy{id, c, obj.chunk(c).bytes,
                                             memsim::kDram, 0, 0});
      schedule.push_back(task::ScheduledCopy{id, c, obj.chunk(c).bytes,
                                             memsim::kNvm, 2, 2});
    }
  }

  core::Runtime plain_rt(rc);
  workloads::HeatApp plain_app(config);
  const core::RunReport plain = plain_rt.run_real_report(plain_app, schedule, 2);

  core::Runtime rt(rc);
  workloads::HeatApp app(config);
  perfbench::CallLog log;
  perfbench::TimedApplication tapp(app, log, nullptr, 1);
  const core::RunReport wrapped = rt.run_real_report(tapp, schedule, 2);

  EXPECT_TRUE(plain.verified);
  EXPECT_GT(plain.migrations, 0u);
  EXPECT_EQ(to_json(plain), to_json(wrapped));
  ASSERT_EQ(log.verify.size(), 1u);
  EXPECT_EQ(log.build.size(), config.iterations);
}

TEST(CallLog, IterationsEndAtTheNextBuildThenAtVerify) {
  perfbench::CallLog log;
  log.build = {{1.0, 1.5}, {3.0, 3.2}, {4.0, 4.1}};
  log.verify = {{7.0, 9.0}};
  EXPECT_EQ(log.iteration_seconds(10.0), (std::vector<double>{2.0, 1.0, 3.0}));
  log.verify.clear();
  EXPECT_EQ(log.iteration_seconds(10.0), (std::vector<double>{2.0, 1.0, 6.0}));
}

TEST(SpanRecorder, SelfTimeSubtractsDirectChildrenOnly) {
  perfbench::SpanRecorder rec;
  const std::size_t root = rec.open("root", 1);
  const std::size_t child = rec.open("child", 1);
  const std::size_t grandchild = rec.open("grandchild", 1);
  rec.close(grandchild);
  rec.close(child);
  rec.close(root);
  const auto& s = rec.spans();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[root].parent, -1);
  EXPECT_EQ(s[child].parent, static_cast<std::int64_t>(root));
  EXPECT_EQ(s[grandchild].parent, static_cast<std::int64_t>(child));
  EXPECT_DOUBLE_EQ(rec.self_seconds(root),
                   (s[root].end - s[root].start) -
                       (s[child].end - s[child].start));
  EXPECT_GE(rec.self_seconds(child), 0.0);
}

}  // namespace
