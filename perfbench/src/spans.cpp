#include "spans.hpp"

#include <fstream>
#include <iomanip>

namespace perfbench {

namespace {
const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}
}  // namespace

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

std::size_t SpanRecorder::open(std::string name, std::uint64_t cell) {
  Span s;
  s.name = std::move(name);
  s.cell = cell;
  s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  s.start = now_seconds();
  spans_.push_back(std::move(s));
  child_seconds_.push_back(0.0);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  Span& s = spans_.at(index);
  s.end = now_seconds();
  // Spans close innermost-first; tolerate an out-of-order close by
  // unwinding to the span being closed.
  while (!stack_.empty() && stack_.back() != index) stack_.pop_back();
  if (!stack_.empty()) stack_.pop_back();
  if (s.parent >= 0) {
    child_seconds_[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
}

double SpanRecorder::self_seconds(std::size_t index) const {
  const Span& s = spans_.at(index);
  return (s.end - s.start) - child_seconds_.at(index);
}

bool SpanRecorder::write_jsonl(const std::string& path,
                               const std::string& header) const {
  std::ofstream os(path);
  if (!os) return false;
  os << header << '\n' << std::setprecision(9);
  for (const Span& s : spans_) {
    os << "{\"name\":";
    write_escaped(os, s.name);
    os << ",\"start\":" << s.start << ",\"end\":" << s.end
       << ",\"parent\":" << s.parent << ",\"cell\":" << s.cell << "}\n";
  }
  return static_cast<bool>(os);
}

}  // namespace perfbench
