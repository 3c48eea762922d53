#include "hooks.hpp"

namespace perfbench {

std::vector<double> CallLog::iteration_seconds(double call_end) const {
  std::vector<double> out;
  out.reserve(build.size());
  for (std::size_t i = 0; i < build.size(); ++i) {
    double end = call_end;
    if (i + 1 < build.size()) {
      end = build[i + 1].start;
    } else if (!verify.empty()) {
      end = verify.front().start;
    }
    out.push_back(end - build[i].start);
  }
  return out;
}

void TimedApplication::setup(tahoe::hms::ObjectRegistry& registry,
                             const tahoe::hms::ChunkingPolicy& chunking) {
  const ScopedSpan span(spans_, "app.setup", cell_);
  Interval t{now_seconds(), 0.0};
  inner_.setup(registry, chunking);
  t.end = now_seconds();
  log_.setup.push_back(t);
}

void TimedApplication::build_iteration(tahoe::task::GraphBuilder& builder,
                                       std::size_t iteration) {
  const ScopedSpan span(spans_, "app.build_iteration", cell_);
  Interval t{now_seconds(), 0.0};
  inner_.build_iteration(builder, iteration);
  t.end = now_seconds();
  log_.build.push_back(t);
}

bool TimedApplication::verify(tahoe::hms::ObjectRegistry& registry) {
  const ScopedSpan span(spans_, "app.verify", cell_);
  Interval t{now_seconds(), 0.0};
  const bool ok = inner_.verify(registry);
  t.end = now_seconds();
  log_.verify.push_back(t);
  return ok;
}

tahoe::core::PlanDecision TimedPolicy::decide(
    const tahoe::core::PlanInputs& in) {
  const ScopedSpan span(spans_, "policy.decide", cell_);
  Interval t{now_seconds(), 0.0};
  tahoe::core::PlanDecision d = inner_.decide(in);
  t.end = now_seconds();
  log_.decide.push_back(t);
  log_.plan_copies += d.schedule.size();
  log_.last_schedule = d.schedule;
  return d;
}

}  // namespace perfbench
