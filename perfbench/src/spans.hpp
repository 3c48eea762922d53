// In-memory span recorder for the benchmark's traced runs.
//
// Every span is (name, start, end, parent, cell): opened and closed around
// one call into a layer's public function from the benchmark's own code.
// Spans nest on one stack, so each records the span that caused it. All
// spans are kept in memory and written out as JSON lines when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the benchmark process started timing.
double now_seconds();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;  ///< index into the recorder's spans, -1 = root
  std::uint64_t cell = 0;    ///< cell (simulated) or run (real) id
};

class SpanRecorder {
 public:
  /// Open a span as a child of the innermost open span; returns its index.
  std::size_t open(std::string name, std::uint64_t cell);
  void close(std::size_t index);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Duration minus the part of it covered by direct children.
  double self_seconds(std::size_t index) const;

  /// One JSON object per line: {"name","start","end","parent","cell"}.
  /// Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path, const std::string& header) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  /// Sum of closed direct-children durations per span (self-time input).
  std::vector<double> child_seconds_;
};

/// RAII span: a no-op when `recorder` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::uint64_t cell)
      : recorder_(recorder),
        index_(recorder ? recorder->open(std::move(name), cell) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::size_t index() const noexcept { return index_; }

 private:
  SpanRecorder* recorder_;
  std::size_t index_;
};

}  // namespace perfbench
