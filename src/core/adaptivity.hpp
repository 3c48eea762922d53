// Workload-variation monitor.
//
// After data movement is in place, the runtime keeps watching per-group
// execution times. When a group deviates from the baseline captured at
// decision time by more than kThreshold (10 %, as in the paper), the
// runtime re-activates phase profiling and re-decides placement.
#pragma once

#include <vector>

namespace tahoe::core {

class AdaptiveMonitor {
 public:
  /// Relative deviation that counts as a workload change.
  static constexpr double kThreshold = 0.10;

  /// Capture the expected per-group durations (decision-time state).
  void set_baseline(std::vector<double> group_seconds);

  bool has_baseline() const noexcept { return !baseline_.empty(); }

  /// True when the observed iteration deviates "obviously": any group
  /// carrying at least 1 % of the iteration deviates by more than
  /// kThreshold, or the iteration total does.
  bool deviates(const std::vector<double>& group_seconds) const;

 private:
  std::vector<double> baseline_;
  double baseline_total_ = 0.0;
};

}  // namespace tahoe::core
