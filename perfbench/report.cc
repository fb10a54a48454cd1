#include "report.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>

#include "util/simd.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

void hash_bytes(std::uint64_t* h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= b[i];
    *h *= 1099511628211ull;
  }
}

template <typename T>
void hash_value(std::uint64_t* h, const T& v) {
  hash_bytes(h, &v, sizeof(v));
}

// Shortest text that reads back as the same double.
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_metrics(const char* heading, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("%s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g %-8s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) {
      std::printf(" n=%llu", static_cast<unsigned long long>(m.samples));
    }
    std::printf("\n");
  }
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double pos = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t rank =
      std::clamp<std::size_t>(static_cast<std::size_t>(pos), 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::uint64_t model_digest(const booster::gbdt::Model& model) {
  std::uint64_t h = 1469598103934665603ull;
  hash_value(&h, model.base_score());
  for (const booster::gbdt::Tree& tree : model.trees()) {
    hash_value(&h, tree.num_nodes());
    for (std::uint32_t id = 0; id < tree.num_nodes(); ++id) {
      const booster::gbdt::TreeNode& n =
          tree.node(static_cast<std::int32_t>(id));
      hash_value(&h, n.is_leaf);
      hash_value(&h, n.weight);
      hash_value(&h, n.field);
      hash_value(&h, n.kind);
      hash_value(&h, n.threshold_bin);
      hash_value(&h, n.default_left);
      hash_value(&h, n.left);
      hash_value(&h, n.right);
      hash_value(&h, n.depth);
      hash_value(&h, n.gain);
    }
  }
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower", 0.25},
      {"train_s", "s", "lower", 0.25},
      {"holdout_logloss", "nats", "lower", 0.05},
      {"predict_rows_per_s", "1/s", "higher", 0.25},
      {"peak_rss_mb", "MB", "lower", 0.15},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"gbdt.binning.s", "s", "lower", 0},
      {"gbdt.step1_hist.s", "s", "lower", 0},
      {"gbdt.step1_hist.share", "share", "lower", 0},
      {"gbdt.step1_hist.record_fields", "count", "lower", 0},
      {"gbdt.step2_split.s", "s", "lower", 0},
      {"gbdt.step2_split.share", "share", "lower", 0},
      {"gbdt.step2_split.bins_scanned", "count", "lower", 0},
      {"gbdt.step3_partition.s", "s", "lower", 0},
      {"gbdt.step3_partition.share", "share", "lower", 0},
      {"gbdt.step3_partition.records", "count", "lower", 0},
      {"gbdt.step5_traversal.s", "s", "lower", 0},
      {"gbdt.step5_traversal.share", "share", "lower", 0},
      {"gbdt.step5_traversal.record_hops", "count", "lower", 0},
      {"gbdt.other.s", "s", "lower", 0},
      {"gbdt.replay_ratio", "ratio", "lower", 0},
      {"gbdt.cold_train.s", "s", "lower", 0},
      {"gbdt.hist_pool.allocations", "count", "lower", 0},
      {"gbdt.dist.histogram_merges", "count", "lower", 0},
      {"perf.seq_cpu.step1_hist.share", "share", "lower", 0},
      {"perf.seq_cpu.step1_hist.error", "share", "lower", 0},
      {"perf.seq_cpu.step2_split.share", "share", "lower", 0},
      {"perf.seq_cpu.step2_split.error", "share", "lower", 0},
      {"perf.seq_cpu.step3_partition.share", "share", "lower", 0},
      {"perf.seq_cpu.step3_partition.error", "share", "lower", 0},
      {"perf.seq_cpu.step5_traversal.share", "share", "lower", 0},
      {"perf.seq_cpu.step5_traversal.error", "share", "lower", 0},
      {"util.thread_pool.threads", "count", "higher", 0},
      {"util.thread_pool.cpu_per_wall", "ratio", "higher", 0},
      {"serve.http.parse_us_per_req", "us", "lower", 0},
      {"serve.row_binner.us_per_row", "us", "lower", 0},
      {"serve.predict.us_per_row", "us", "lower", 0},
      {"serve.http.respond_us_per_req", "us", "lower", 0},
      {"serve.loop.cpu_us_per_req", "us", "lower", 0},
      {"serve.loop.busy_share", "share", "lower", 0},
      {"serve.loop.unattributed_us_per_req", "us", "lower", 0},
      {"serve.batch.rows_mean", "rows", "higher", 0},
      {"serve.wire.bytes_in_per_req", "B", "lower", 0},
      {"serve.wire.bytes_out_per_req", "B", "lower", 0},
      {"serve.admission.shed", "count", "lower", 0},
      {"serve.gen.late_p99_ms", "ms", "lower", 0},
      {"ipc.transport.frames", "count", "lower", 0},
      {"ipc.transport.bytes", "B", "lower", 0},
      {"ipc.transport.send_s", "s", "lower", 0},
      {"ipc.transport.recv_wait_s", "s", "lower", 0},
      {"ipc.rank0.busy_s", "s", "lower", 0},
      {"ipc.codec.encode_mb_per_s", "MB/s", "higher", 0},
      {"ipc.codec.decode_mb_per_s", "MB/s", "higher", 0},
      {"ipc.reliable.retransmits", "count", "lower", 0},
      {"ipc.reliable.heartbeats_sent", "count", "lower", 0},
      {"trace.overhead_s", "s", "lower", 0},
      {"trace.spans", "count", "lower", 0},
  };
  return defs;
}

Report::Report() {
  for (const MetricDef& d : end_to_end_metrics()) {
    e2e_.push_back({d.name, 0.0, d.unit, 0});
  }
  e2e_set_.assign(e2e_.size(), false);
  for (const MetricDef& d : per_layer_metrics()) {
    layer_.push_back({d.name, 0.0, d.unit, 0});
  }
}

void Report::e2e(const std::string& name, double value,
                 std::uint64_t samples) {
  for (std::size_t i = 0; i < e2e_.size(); ++i) {
    if (e2e_[i].name != name) continue;
    e2e_[i].value = value;
    e2e_[i].samples = samples;
    e2e_set_[i] = true;
    return;
  }
  gate(false, "unknown end-to-end metric " + name);
}

void Report::layer(const std::string& name, double value,
                   std::uint64_t samples) {
  for (Metric& m : layer_) {
    if (m.name != name) continue;
    m.value = value;
    m.samples = samples;
    return;
  }
  gate(false, "unknown per-layer metric " + name);
}

void Report::extra(std::string name, double value, std::string unit,
                   std::uint64_t samples) {
  extra_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::note(std::string key, std::string value) {
  notes_.emplace_back(std::move(key), std::move(value));
}

void Report::count(std::uint64_t ok, std::uint64_t failed,
                   std::string_view what) {
  attempted_ += ok + failed;
  failed_ += failed;
  if (failed > 0) {
    // One line per distinct reason is enough to debug from.
    const std::string reason(what);
    if (std::find(gate_failures_.begin(), gate_failures_.end(), reason) ==
        gate_failures_.end()) {
      gate_failures_.push_back(reason);
    }
  }
}

void Report::gate(bool ok, std::string_view what) {
  if (!ok) gate_failures_.emplace_back(what);
}

int Report::print(std::string_view workload, std::uint64_t seed,
                  bool traced) const {
  std::printf("perfbench workload=%.*s seed=%llu mode=%s\n",
              static_cast<int>(workload.size()), workload.data(),
              static_cast<unsigned long long>(seed),
              traced ? "traced" : "untraced");
  std::printf("host {");
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    std::printf("%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                json_escape(notes_[i].first).c_str(),
                json_escape(notes_[i].second).c_str());
  }
  std::printf("}\n");
  print_metrics("end-to-end (untraced):", e2e_);
  print_metrics("workload-specific end-to-end (untraced, printed only):",
                extra_);
  if (traced) print_metrics("per-layer (traced):", layer_);
  const double fail_share =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("fail_share %.6g (%llu of %llu operations)\n", fail_share,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));

  // Every reported metric must be well-formed and finite, or the run is
  // not a result.
  std::vector<std::string> failures = gate_failures_;
  for (std::size_t i = 0; i < e2e_.size(); ++i) {
    if (!e2e_set_[i]) failures.push_back("not measured: " + e2e_[i].name);
  }
  const std::vector<Metric>& chosen = traced ? layer_ : e2e_;
  for (const Metric& m : chosen) {
    if (!valid_metric_name(m.name)) failures.push_back("bad name " + m.name);
    if (!std::isfinite(m.value)) failures.push_back("non-finite " + m.name);
  }
  for (const std::string& f : failures) {
    std::printf("GATE FAILED: %s\n", f.c_str());
  }
  const bool ok = failures.empty() && failed_ == 0 && attempted_ > 0;

  std::string line = "{\"correct\": ";
  line += ok ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : chosen) {
    if (!std::isfinite(m.value)) continue;
    if (!first) line += ", ";
    first = false;
    line += '"';
    line += json_escape(m.name);
    line += "\": {\"value\": ";
    line += number(m.value);
    line += ", \"unit\": \"";
    line += json_escape(m.unit);
    line += "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

void add_host_notes(Report* report) {
  report->note("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  report->note("affinity_cpus", std::to_string(affinity));
  // "<quota> <period>" or "max <period>"; absent outside a cgroup-v2 host.
  std::string cpu_max;
  std::ifstream cg("/sys/fs/cgroup/cpu.max");
  if (!cg || !std::getline(cg, cpu_max)) cpu_max = "absent";
  report->note("cgroup_cpu_max", cpu_max);
  report->note("simd", booster::util::simd::level_name(
                           booster::util::simd::active()));
  report->note("default_threads",
               std::to_string(booster::util::ThreadPool::default_threads()));
  report->note("compiler", __VERSION__);
  report->note("build_type", PERFBENCH_BUILD_TYPE);
  const char* commit = std::getenv("PERFBENCH_SOURCE");
  report->note("source", commit != nullptr ? commit : "unknown");
}

}  // namespace perfbench
