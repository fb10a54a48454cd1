// The benchmark's own tests: self-time arithmetic, metric-name validity,
// the metric tables, and reproducibility of the seeded arrival schedule.
// Exits non-zero when any check fails.
//
//   .bench_build/perfbench/perfbench_tests
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "report.h"
#include "schedule.h"
#include "spans.h"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

Span span(const char* name, std::int64_t start, std::int64_t end,
          std::int32_t parent) {
  return Span{name, start, end, parent};
}

void self_time_subtracts_children() {
  // root [0, 100) with children [10, 30) and [50, 60): self = 70 ns.
  const std::vector<Span> spans = {span("root", 0, 100, -1),
                                   span("a", 10, 30, 0),
                                   span("b", 50, 60, 0)};
  const std::vector<double> self = self_seconds(spans);
  CHECK(near(self[0], 70e-9));
  CHECK(near(self[1], 20e-9));
  CHECK(near(self[2], 10e-9));
}

void self_time_merges_overlapping_children() {
  // Children on two threads overlap: [10, 40) and [30, 50) cover 40 ns,
  // not 50; a child running past its parent is clipped to the parent.
  const std::vector<Span> spans = {span("root", 0, 100, -1),
                                   span("a", 10, 40, 0),
                                   span("b", 30, 50, 0),
                                   span("c", 90, 120, 0)};
  const std::vector<double> self = self_seconds(spans);
  CHECK(near(self[0], 50e-9));
}

void self_time_counts_only_direct_children() {
  // A grandchild is inside its parent's interval already.
  const std::vector<Span> spans = {span("root", 0, 100, -1),
                                   span("child", 0, 60, 0),
                                   span("grandchild", 10, 50, 1)};
  const std::vector<double> self = self_seconds(spans);
  CHECK(near(self[0], 40e-9));
  CHECK(near(self[1], 20e-9));
  CHECK(near(self[2], 40e-9));
  const auto totals = totals_by_name(spans);
  CHECK(totals.at("child").count == 1);
  CHECK(near(totals.at("root").total_s, 100e-9));
}

void recorder_nests_spans_on_one_thread() {
  SpanRecorder& rec = SpanRecorder::global();
  rec.clear();
  rec.set_enabled(true);
  {
    ScopedSpan outer("outer");
    ScopedSpan inner("inner");
  }
  rec.set_enabled(false);
  { ScopedSpan ignored("off"); }
  const std::vector<Span> spans = rec.spans();
  CHECK(spans.size() == 2);
  CHECK(spans[0].name == "outer" && spans[0].parent == -1);
  CHECK(spans[1].name == "inner" && spans[1].parent == 0);
  CHECK(spans[1].start_ns >= spans[0].start_ns);
  CHECK(spans[1].end_ns <= spans[0].end_ns);
  CHECK(SpanRecorder::current() == -1);
  rec.clear();
}

void metric_names_are_validated() {
  CHECK(valid_metric_name("train_s"));
  CHECK(valid_metric_name("gbdt.step1_hist.share"));
  CHECK(valid_metric_name("p99-ms"));
  CHECK(valid_metric_name("0x"));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name(".leading_dot"));
  CHECK(!valid_metric_name("has space"));
  CHECK(!valid_metric_name("slash/name"));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  CHECK(valid_metric_name(std::string(64, 'a')));
}

void metric_tables_are_well_formed() {
  std::set<std::string> names;
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& m : *table) {
      CHECK(valid_metric_name(m.name));
      CHECK(names.insert(m.name).second);  // every name used once
      const std::string better = m.better;
      CHECK(better == "lower" || better == "higher");
    }
  }
  bool has_setup = false;
  for (const MetricDef& m : end_to_end_metrics()) {
    CHECK(m.bound > 0.0 && m.bound <= 0.25);
    if (std::string(m.name) == "setup_s") {
      has_setup =
          std::string(m.unit) == "s" && std::string(m.better) == "lower";
      // setup_s carries the largest bound.
      for (const MetricDef& o : end_to_end_metrics()) CHECK(o.bound <= m.bound);
    }
  }
  CHECK(has_setup);
}

void percentile_is_nearest_rank() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  CHECK(percentile(v, 0.5) == 50);
  CHECK(percentile(v, 0.99) == 99);
  CHECK(percentile(v, 1.0) == 100);
  CHECK(percentile({}, 0.5) == 0);
}

void arrival_schedule_is_reproducible() {
  const auto a = poisson_schedule(42, 2000.0, 2.0);
  const auto b = poisson_schedule(42, 2000.0, 2.0);
  const auto c = poisson_schedule(43, 2000.0, 2.0);
  CHECK(a == b);
  CHECK(a != c);
  // ~4000 arrivals (Poisson: sd ~63), ascending, inside the window.
  CHECK(a.size() > 3700 && a.size() < 4300);
  bool ascending = true;
  for (std::size_t i = 1; i < a.size(); ++i) ascending &= a[i] >= a[i - 1];
  CHECK(ascending);
  CHECK(a.front() >= 0 && a.back() < 2'000'000'000);
  CHECK(mix_seed(7, 1) == mix_seed(7, 1));
  CHECK(mix_seed(7, 1) != mix_seed(7, 2));
  CHECK(poisson_schedule(1, 0.0, 1.0).empty());
}

}  // namespace

int main() {
  self_time_subtracts_children();
  self_time_merges_overlapping_children();
  self_time_counts_only_direct_children();
  recorder_nests_spans_on_one_thread();
  metric_names_are_validated();
  metric_tables_are_well_formed();
  percentile_is_nearest_rank();
  arrival_schedule_is_reproducible();
  if (failures == 0) std::printf("perfbench_tests: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
