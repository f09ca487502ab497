#pragma once
// In-memory span recorder for the benchmark's traced run.
//
// A span is (name, start, end, parent). Spans are opened and closed in
// strict LIFO order on one thread (the layer replay is single-threaded), kept
// in a vector, and summarised or written out only after the run. Self time is
// a span's duration minus the time its direct children cover.

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  // seconds since the recorder was created
  double end_s = 0.0;
  int parent = -1;       // index into Recorder::spans(), -1 = root
  double child_s = 0.0;  // time covered by direct children
};

struct SpanTotals {
  std::size_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Recorder {
 public:
  Recorder() : origin_(clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name);
  /// Closes span `id`, which must be the innermost open span.
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Calls, total and self time per span name.
  std::map<std::string, SpanTotals> totals() const;
  /// Writes one JSON object per span: name, start_s, end_s, parent.
  void write_jsonl(const std::string& path) const;

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a recorder.
class Scope {
 public:
  Scope(Recorder& rec, std::string name) : rec_(rec), id_(rec.open(std::move(name))) {}
  ~Scope() { rec_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& rec_;
  int id_;
};

}  // namespace perfbench
