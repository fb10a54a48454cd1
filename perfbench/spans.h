// In-memory span recorder for the benchmark's traced run. Spans are opened
// in the benchmark's own code around calls into each layer's public
// functions (the library itself carries no tracing): name, start, end, and
// the span that was open on the same thread when it began. They stay in
// memory while the workload runs and are written out once at exit.
//
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover (children on other threads may overlap
// each other, so the covered part is the union of their clipped intervals).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock, nanoseconds.
std::int64_t now_ns();

inline double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the recorder's span list, -1 = root
};

class SpanRecorder {
 public:
  /// The process-wide recorder. Disabled until set_enabled(true): the
  /// untraced measurement never touches it.
  static SpanRecorder& global();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span whose parent is the span currently open on this thread
  /// (or `parent` when given); returns its index.
  std::int32_t open(const char* name, std::int32_t parent = -2);
  void close(std::int32_t id);

  /// Index of the innermost span open on the calling thread, or -1.
  static std::int32_t current();

  std::vector<Span> spans() const;
  void clear();

  /// One JSON object per line: {"name", "start_ns", "end_ns", "parent"}.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on the global recorder; a no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int32_t parent = -2);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t id_ = -1;
};

/// Self time of every span, seconds (same order as `spans`).
std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Per-name sums of span duration and self time, seconds.
struct NameTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t count = 0;
};
std::map<std::string, NameTotals> totals_by_name(
    const std::vector<Span>& spans);

}  // namespace perfbench
