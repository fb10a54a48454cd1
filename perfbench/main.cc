// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <train-iot|train-flight|serve-iot|dist-fraud>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//   perfbench --list-metrics
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// also records spans around each layer's calls and reports the per-layer
// metrics (the spans are written to --spans at exit). The last stdout line
// is the result JSON; the exit code is non-zero when a correctness gate
// failed.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;

void list_metrics() {
  std::printf("{\"end_to_end\": [\n");
  const auto& e2e = end_to_end_metrics();
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    std::printf("  {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", "
                "\"bound\": %g}%s\n",
                e2e[i].name, e2e[i].unit, e2e[i].better, e2e[i].bound,
                i + 1 < e2e.size() ? "," : "");
  }
  std::printf("],\n\"per_layer\": [\n");
  const auto& layers = per_layer_metrics();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    // Per-layer metrics carry no bound.
    std::printf("  {\"name\": \"%s\", \"unit\": \"%s\", "
                "\"better\": \"%s\"}%s\n",
                layers[i].name, layers[i].unit, layers[i].better,
                i + 1 < layers.size() ? "," : "");
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto arg = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
    };
    if (std::strcmp(argv[i], "--list-metrics") == 0) {
      list_metrics();
      return 0;
    } else if (arg("--workload")) {
      opt.workload = argv[++i];
    } else if (arg("--seed")) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg("--seconds")) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg("--trace")) {
      opt.traced = std::atoi(argv[++i]) != 0;
    } else if (arg("--spans")) {
      opt.span_path = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (opt.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }

  // One glibc malloc arena: with per-thread arenas, peak RSS depends on
  // which threads happened to allocate first (dist-fraud's varied 79-104 MB
  // between identical runs; with one arena, 58.2-59.0 MB over ten seeds).
  mallopt(M_ARENA_MAX, 1);

  Report report;
  add_host_notes(&report);
  SpanRecorder::global().set_enabled(opt.traced);
  if (opt.workload == "train-iot" || opt.workload == "train-flight") {
    run_train(opt, &report);
  } else if (opt.workload == "serve-iot") {
    run_serve(opt, &report);
  } else if (opt.workload == "dist-fraud") {
    run_dist(opt, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  if (opt.traced) {
    SpanRecorder& rec = SpanRecorder::global();
    report.layer("trace.spans", static_cast<double>(rec.spans().size()));
    if (!opt.span_path.empty() && !rec.write_jsonl(opt.span_path)) {
      report.gate(false, "could not write spans to " + opt.span_path);
    }
  }
  return report.print(opt.workload, opt.seed, opt.traced);
}
