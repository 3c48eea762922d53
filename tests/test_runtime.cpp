// Runtime facade: the full profile -> decide -> enforce -> adapt loop on
// synthetic workloads (simulated timing path).
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include "common/fault.hpp"
#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "workloads/synthetic.hpp"

namespace tahoe {
namespace {

memsim::Machine machine(std::uint64_t dram = 64 * kMiB) {
  return memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(dram), 0.5,
                                       4 * kGiB),
      dram);
}

core::RuntimeConfig config(std::uint64_t dram = 64 * kMiB) {
  core::RuntimeConfig c;
  c.machine = machine(dram);
  c.backing = hms::Backing::Virtual;
  return c;
}

core::TahoePolicy tahoe_policy(const memsim::Machine& m,
                               core::TahoeOptions opts = {}) {
  return core::TahoePolicy(core::calibrate(m).to_constants(), opts);
}

TEST(Runtime, StaticBaselinesOrderCorrectly) {
  workloads::StreamApp app({48 * kMiB, 8, 5});
  core::Runtime rt(config());
  const core::RunReport dram = rt.run_static(app, memsim::kDram);
  const core::RunReport nvm = rt.run_static(app, memsim::kNvm);
  EXPECT_GT(nvm.total_seconds(), 1.5 * dram.total_seconds());
  EXPECT_EQ(dram.policy, "dram-only");
  EXPECT_EQ(nvm.policy, "nvm-only");
  EXPECT_EQ(dram.iteration_seconds.size(), 5u);
}

TEST(Runtime, TahoeClosesTheGapOnStreams) {
  workloads::StreamApp app({24 * kMiB, 8, 10});
  core::RuntimeConfig c = config();
  c.initial_placement = false;  // force runtime migration to do the work
  core::Runtime rt(c);
  core::TahoePolicy policy = tahoe_policy(rt.machine());
  const core::RunReport r = rt.run(app, policy);
  const core::RunReport dram = rt.run_static(app, memsim::kDram);
  const core::RunReport nvm = rt.run_static(app, memsim::kNvm);
  // Steady state within 10% of DRAM-only (both objects fit: 48 of 64 MiB).
  EXPECT_LT(r.steady_iteration_seconds(),
            1.10 * dram.steady_iteration_seconds());
  EXPECT_LT(r.steady_iteration_seconds(), nvm.steady_iteration_seconds());
  EXPECT_GT(r.migrations, 0u);
}

TEST(Runtime, LatencyBoundWorkloadAlsoImproves) {
  workloads::ChaseApp app({16 * kMiB, 12});
  core::RuntimeConfig c;
  c.machine = memsim::machines::platform_a(
      memsim::devices::nvm_lat_multiple(memsim::devices::dram(64 * kMiB), 4.0,
                                        4 * kGiB),
      64 * kMiB);
  c.backing = hms::Backing::Virtual;
  core::Runtime rt(c);
  core::TahoePolicy policy = tahoe_policy(rt.machine());
  const core::RunReport r = rt.run(app, policy);
  const core::RunReport dram = rt.run_static(app, memsim::kDram);
  const core::RunReport nvm = rt.run_static(app, memsim::kNvm);
  EXPECT_GT(nvm.steady_iteration_seconds(),
            3.0 * dram.steady_iteration_seconds());
  EXPECT_LT(r.steady_iteration_seconds(),
            1.10 * dram.steady_iteration_seconds());
}

TEST(Runtime, OverheadIsSmallFraction) {
  workloads::StreamApp app({24 * kMiB, 8, 12});
  core::Runtime rt(config());
  core::TahoePolicy policy = tahoe_policy(rt.machine());
  const core::RunReport r = rt.run(app, policy);
  EXPECT_LT(r.runtime_cost_fraction(), 0.05);
  EXPECT_GT(r.overhead_seconds, 0.0);
  EXPECT_GE(r.decision_seconds, 0.0);
}

TEST(Runtime, AdaptivityReprofilesOnDrift) {
  workloads::DriftApp app({48 * kMiB, 8, 16, 8});
  core::Runtime rt(config());  // DRAM holds one of the two 48 MiB objects
  core::TahoePolicy policy = tahoe_policy(rt.machine());
  const core::RunReport r = rt.run(app, policy);
  EXPECT_GE(r.reprofiles, 1u);
  // After re-deciding, the new hot object is resident: the final
  // iterations must be fast again (close to the early steady state).
  const double early = r.iteration_seconds[6];   // pre-drift steady
  const double late = r.iteration_seconds.back();
  EXPECT_LT(late, 1.25 * early);
}

TEST(Runtime, FrozenPlanSuffersAfterDrift) {
  workloads::DriftApp app({48 * kMiB, 8, 16, 8});
  core::RuntimeConfig c = config();
  c.adaptive = false;
  core::Runtime rt(c);
  core::TahoePolicy policy = tahoe_policy(rt.machine());
  const core::RunReport frozen = rt.run(app, policy);
  EXPECT_EQ(frozen.reprofiles, 0u);
  workloads::DriftApp app2({48 * kMiB, 8, 16, 8});
  core::Runtime rt2(config());
  core::TahoePolicy policy2 = tahoe_policy(rt2.machine());
  const core::RunReport adaptive = rt2.run(app2, policy2);
  EXPECT_LT(adaptive.iteration_seconds.back(),
            frozen.iteration_seconds.back());
}

TEST(Runtime, InitialPlacementReducesFirstEnforcementTraffic) {
  workloads::StreamApp app({24 * kMiB, 8, 8});
  core::RuntimeConfig with = config();
  core::RuntimeConfig without = config();
  without.initial_placement = false;
  core::Runtime rt_with(with);
  core::Runtime rt_without(without);
  core::TahoePolicy p1 = tahoe_policy(rt_with.machine());
  core::TahoePolicy p2 = tahoe_policy(rt_without.machine());
  const core::RunReport a = rt_with.run(app, p1);
  const core::RunReport b = rt_without.run(app, p2);
  // Static estimates put the hot arrays in DRAM at allocation: less data
  // moves at runtime and profiling iterations already run fast.
  EXPECT_LE(a.bytes_moved, b.bytes_moved);
  EXPECT_LE(a.iteration_seconds[0], b.iteration_seconds[0] * 1.001);
}

TEST(Runtime, ReportAccountingConsistent) {
  workloads::StreamApp app({24 * kMiB, 4, 6});
  core::Runtime rt(config());
  core::TahoePolicy policy = tahoe_policy(rt.machine());
  const core::RunReport r = rt.run(app, policy);
  double sum = 0.0;
  for (double s : r.iteration_seconds) sum += s;
  EXPECT_NEAR(sum, r.compute_seconds, 1e-12);
  EXPECT_NEAR(r.total_seconds(), r.compute_seconds + r.overhead_seconds,
              1e-12);
  EXPECT_GE(r.overlap_fraction(), 0.0);
  EXPECT_LE(r.overlap_fraction(), 1.0);
  EXPECT_EQ(r.workload, "stream");
  EXPECT_EQ(r.policy, "tahoe");
}

TEST(Runtime, StaticRunCountsInjectedFaults) {
  // Allocation failures strike while the objects are allocated, before the
  // first simulated iteration; the registry retries and falls back, so the
  // run completes and its report must account for every injection.
  fault::FaultConfig faults;
  faults.seed = 42;
  faults.alloc_failure = 0.5;
  fault::global().configure(faults);
  const std::uint64_t before = fault::global().total_injected();
  workloads::StreamApp app({48 * kMiB, 8, 5});
  core::Runtime rt(config());
  const core::RunReport r = rt.run_static(app, memsim::kDram);
  const std::uint64_t injected = fault::global().total_injected() - before;
  fault::global().disarm();
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(r.faults_injected, injected);
}

TEST(Runtime, RunRealExecutesAndVerifies) {
  // Small real run exercising real kernels + real helper-thread
  // migrations driven by a real decision.
  workloads::StreamApp app({4 * kMiB, 4, 3});
  core::RuntimeConfig c = config(16 * kMiB);
  c.backing = hms::Backing::Real;
  core::Runtime rt(c);
  core::TahoePolicy policy = tahoe_policy(rt.machine());
  const core::RunReport r = rt.run(app, policy);
  workloads::StreamApp app2({4 * kMiB, 4, 3});
  EXPECT_TRUE(rt.run_real(app2, /*schedule=*/{}, 2));
}

TEST(Runtime, ConfigContracts) {
  core::RuntimeConfig c = config();
  c.machine.devices.resize(1);  // one tier: nothing to place between
  EXPECT_THROW(core::Runtime{c}, ContractError);
}

}  // namespace
}  // namespace tahoe
