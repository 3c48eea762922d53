// Timing wrappers around the two virtual interfaces the runtime calls back
// into. They forward every call unchanged and record when it ran, so the
// benchmark can time the application's layer (setup, per-iteration graph
// declaration, verify) and the planner (decide) from outside the program.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/application.hpp"
#include "core/policy.hpp"
#include "spans.hpp"

namespace perfbench {

struct Interval {
  double start = 0.0;
  double end = 0.0;
  double seconds() const noexcept { return end - start; }
};

/// What the wrappers saw during one Runtime call (one cell or run).
struct CallLog {
  std::vector<Interval> setup;
  std::vector<Interval> build;   ///< one per build_iteration call
  std::vector<Interval> verify;
  std::vector<Interval> decide;
  std::size_t plan_copies = 0;   ///< summed schedule size over decides
  std::vector<tahoe::task::ScheduledCopy> last_schedule;

  /// Wall seconds of each main-loop iteration: from one build_iteration
  /// start to the next; the last ends where verify starts (real runs) or
  /// at `call_end` (simulated runs never verify).
  std::vector<double> iteration_seconds(double call_end) const;
};

class TimedApplication : public tahoe::core::Application {
 public:
  TimedApplication(tahoe::core::Application& inner, CallLog& log,
                   SpanRecorder* spans, std::uint64_t cell)
      : inner_(inner), log_(log), spans_(spans), cell_(cell) {}

  std::string name() const override { return inner_.name(); }
  std::size_t iterations() const override { return inner_.iterations(); }
  void setup(tahoe::hms::ObjectRegistry& registry,
             const tahoe::hms::ChunkingPolicy& chunking) override;
  void build_iteration(tahoe::task::GraphBuilder& builder,
                       std::size_t iteration) override;
  bool verify(tahoe::hms::ObjectRegistry& registry) override;

 private:
  tahoe::core::Application& inner_;
  CallLog& log_;
  SpanRecorder* spans_;
  std::uint64_t cell_;
};

/// Wraps a policy; also captures every decision's schedule.
class TimedPolicy : public tahoe::core::Policy {
 public:
  TimedPolicy(tahoe::core::Policy& inner, CallLog& log, SpanRecorder* spans,
              std::uint64_t cell)
      : inner_(inner), log_(log), spans_(spans), cell_(cell) {}

  std::string name() const override { return inner_.name(); }
  bool needs_profiling() const override { return inner_.needs_profiling(); }
  tahoe::core::PlanDecision decide(
      const tahoe::core::PlanInputs& in) override;

 private:
  tahoe::core::Policy& inner_;
  CallLog& log_;
  SpanRecorder* spans_;
  std::uint64_t cell_;
};

}  // namespace perfbench
