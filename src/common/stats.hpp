// Small statistics helpers: bench_executor_throughput's median and p10/p90
// columns, and the tests.
#pragma once

#include <cstddef>
#include <vector>

namespace tahoe {

/// Single-pass running mean/variance (Welford) with min/max tracking.
class RunningStats {
 public:
  void add(double x) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile of a sample (linear interpolation between closest ranks).
/// `q` in [0,1]. The input is copied; the source is not reordered.
double percentile(std::vector<double> xs, double q);

/// Arithmetic mean of a vector (0 when empty).
double mean_of(const std::vector<double>& xs) noexcept;

/// Geometric mean (requires all-positive entries; 0 when empty).
double geomean_of(const std::vector<double>& xs);

/// Relative difference |a-b| / max(|a|,|b|, eps).
double rel_diff(double a, double b) noexcept;

}  // namespace tahoe
