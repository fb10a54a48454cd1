// Result of one benchmark run: end-to-end metrics (measured with tracing
// off), per-layer metrics (from the traced run), correctness gates, and the
// host provenance that makes the numbers comparable across machines.
//
// Output: human-readable lines first, then -- always the last line of
// stdout -- one JSON object {"correct", "attempted", "failed", "metrics"}.
// Untraced runs put the end-to-end metrics there, traced runs the per-layer
// metrics.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gbdt/tree.h"

namespace perfbench {

/// Metric names are [A-Za-z0-9_.-]+, start with a letter or digit, and are
/// at most 64 characters.
bool valid_metric_name(std::string_view name);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// FNV-1a over every bit of the ensemble (base score, node structure,
/// weights, gains): equal digests mean bit-identical models.
std::uint64_t model_digest(const booster::gbdt::Model& model);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Process CPU time (all threads), seconds.
double process_cpu_s();

/// A metric the benchmark defines. `bound` (end-to-end metrics only) is the
/// share of the parent's median by which the metric may worsen. README.md
/// records which end-to-end metric each per-layer metric should move.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
  double bound;        // 0 for per-layer metrics (no bound)
};

/// Reported by every workload's untraced run, in this order.
const std::vector<MetricDef>& end_to_end_metrics();
/// Reported by every workload's traced run; 0 where a layer is not on the
/// workload's path (e.g. ipc.* on a single-process workload).
const std::vector<MetricDef>& per_layer_metrics();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  // 0 = not a sampled statistic
};

class Report {
 public:
  Report();

  /// End-to-end metric (a name from end_to_end_metrics()).
  void e2e(const std::string& name, double value, std::uint64_t samples = 0);
  /// Per-layer metric (a name from per_layer_metrics()).
  void layer(const std::string& name, double value,
             std::uint64_t samples = 0);
  /// Printed for reading, never in the result line (workload-specific
  /// end-to-end numbers that have no counterpart on the other workloads).
  void extra(std::string name, double value, std::string unit,
             std::uint64_t samples = 0);
  /// Provenance key/value, printed with the host block.
  void note(std::string key, std::string value);

  /// Counts operations; failed ones also record why.
  void count(std::uint64_t ok, std::uint64_t failed, std::string_view what);
  void attempt(bool ok, std::string_view what) {
    count(ok ? 1 : 0, ok ? 0 : 1, what);
  }
  /// A correctness gate; a failure makes the run incorrect.
  void gate(bool ok, std::string_view what);

  /// Prints everything; the last line is the result JSON. Returns the
  /// process exit code (0 only when every gate passed).
  int print(std::string_view workload, std::uint64_t seed, bool traced) const;

 private:
  std::vector<Metric> e2e_;    // in end_to_end_metrics() order
  std::vector<Metric> layer_;  // in per_layer_metrics() order
  std::vector<bool> e2e_set_;
  std::vector<Metric> extra_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> gate_failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Host and build provenance: nproc, affinity CPU count, cgroup cpu.max,
/// SIMD level, compiler, build type, source commit.
void add_host_notes(Report* report);

}  // namespace perfbench
