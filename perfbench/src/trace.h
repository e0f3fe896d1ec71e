// In-memory span recorder for the benchmark's traced run.
//
// The benchmark opens a span around each call it makes into a layer of the
// simulator (name, start, end, parent span). Spans live in memory and are
// written out once, when the run ends. A span's self time is its duration
// minus the part of it covered by its children. With tracing off, Begin and
// End cost one branch, so the end-to-end run times the same code path.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  /// Seconds since the tracer was created.
  double start = 0.0;
  double end = 0.0;
  /// Index of the enclosing span, or -1 at top level.
  int64_t parent = -1;

  double Duration() const { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; returns its id (-1 when
  /// tracing is off).
  int64_t Begin(const std::string& name);
  /// Closes the innermost open span, which must be `id`.
  void End(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Shortest duration of a span called `name` (0 when there is none).
  double Min(const std::string& name) const;
  /// Summed self time per span name.
  std::map<std::string, double> SelfTimes() const;

  /// Writes every span and the per-name self times as JSON.
  bool WriteJson(const std::string& path) const;

 private:
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
