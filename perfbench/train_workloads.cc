// train-iot and train-flight: Trainer::train on seeded IoT-shaped and
// Flight-shaped data, plus the helpers every workload shares (set-up,
// held-out scoring, the in-process request path, the traced step replay).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>

#include "baselines/cpu_like.h"
#include "gbdt/binning.h"
#include "replay.h"
#include "schedule.h"
#include "serve/client.h"
#include "serve/http.h"
#include "serve/row_binner.h"
#include "spans.h"
#include "stream/frozen_bin_map.h"
#include "trace/step_trace.h"
#include "util/check.h"
#include "workloads.h"
#include "workloads/synth.h"

namespace perfbench {

using namespace booster;

namespace {

// The server's response body: one %.17g line per prediction, which
// parse_predictions reads back to the same double.
void append_predictions(std::string* out, std::span<const double> values) {
  char buf[40];
  for (const double v : values) {
    const int len = std::snprintf(buf, sizeof(buf), "%.17g\n", v);
    out->append(buf, static_cast<std::size_t>(len));
  }
}

gbdt::Dataset copy_rows(const gbdt::Dataset& src,
                        std::span<const std::uint64_t> rows) {
  gbdt::Dataset out;
  for (std::uint32_t f = 0; f < src.num_fields(); ++f) {
    const gbdt::FieldSchema& schema = src.field(f);
    if (schema.kind == gbdt::FieldKind::kNumeric) {
      out.add_numeric_field(schema.name);
    } else {
      out.add_categorical_field(schema.name, schema.cardinality);
    }
  }
  out.resize(rows.size());
  for (std::uint64_t i = 0; i < rows.size(); ++i) {
    const std::uint64_t r = rows[i];
    for (std::uint32_t f = 0; f < src.num_fields(); ++f) {
      if (src.field(f).kind == gbdt::FieldKind::kNumeric) {
        out.set_numeric(f, i, src.numeric_value(f, r));
      } else {
        out.set_categorical(f, i, src.categorical_value(f, r));
      }
    }
    out.set_label(i, src.label(r));
  }
  return out;
}

// Seed of the synthetic generator's draw (see prepare()).
constexpr std::uint64_t kDataSeed = 42;

struct StepDef {
  const char* span;
  const char* name;
  trace::StepKind kind;
};
constexpr StepDef kSteps[] = {
    {"gbdt.step1_hist", "step1_hist", trace::StepKind::kHistogram},
    {"gbdt.step2_split", "step2_split", trace::StepKind::kSplitSelect},
    {"gbdt.step3_partition", "step3_partition", trace::StepKind::kPartition},
    {"gbdt.step5_traversal", "step5_traversal", trace::StepKind::kTraversal},
};

}  // namespace

Prepared prepare(const workloads::DatasetSpec& spec, std::uint64_t records,
                 std::uint64_t holdout_records, std::uint64_t seed) {
  // The generator's draw is fixed (its seed also fixes the hidden ground
  // truth, and with it how hard the data is to fit); the workload seed
  // picks which rows are held out and the order of the training rows.
  // Seeds then vary the inputs without changing the problem's size or
  // difficulty, so runs with different seeds stay comparable.
  Prepared p;
  {
    const std::uint64_t n = records + holdout_records;
    const gbdt::Dataset all = workloads::synthesize(spec, n, kDataSeed);
    std::vector<std::uint64_t> order(n);
    for (std::uint64_t i = 0; i < n; ++i) order[i] = i;
    std::uint64_t state = seed;
    for (std::uint64_t i = n - 1; i > 0; --i) {  // Fisher-Yates
      state = mix_seed(state, i);
      std::swap(order[i], order[state % (i + 1)]);
    }
    const std::span<const std::uint64_t> all_rows(order);
    p.raw = copy_rows(all, all_rows.first(records));
    p.holdout_raw = copy_rows(all, all_rows.subspan(records));
  }
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan s("gbdt.binning");
    p.train = gbdt::Binner().bin(p.raw);
  }
  p.binning_s = seconds_between(t0, now_ns());
  p.train.ensure_row_major();
  stream::FrozenBinMap(p.train).bin_chunk(p.holdout_raw, &p.holdout);
  return p;
}

double logloss(const std::vector<double>& probs, const gbdt::Dataset& data) {
  double sum = 0.0;
  for (std::size_t r = 0; r < probs.size(); ++r) {
    const double p = std::clamp(probs[r], 1e-15, 1.0 - 1e-15);
    const double y = data.label(r);
    sum -= y * std::log(p) + (1.0 - y) * std::log(1.0 - p);
  }
  return probs.empty() ? 0.0 : sum / static_cast<double>(probs.size());
}

std::vector<double> predict_all(const gbdt::Model& model,
                                const gbdt::BinnedDataset& data) {
  std::vector<double> out(data.num_records());
  for (std::uint64_t r = 0; r < data.num_records(); ++r) {
    out[r] = model.predict(data, r);
  }
  return out;
}

std::string predict_request(const gbdt::Dataset& data, std::uint64_t begin,
                            std::uint64_t count) {
  const std::string body = serve::csv_rows(data, begin, count);
  std::string req = "POST /predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    "Content-Type: text/plain\r\nContent-Length: ";
  req += std::to_string(body.size());
  req += "\r\n\r\n";
  req += body;
  return req;
}

RequestPath::RequestPath(const gbdt::Model& model,
                         const gbdt::BinnedDataset& bins,
                         const gbdt::Dataset& holdout_raw,
                         const std::vector<double>& expected,
                         std::uint32_t requests_per_batch)
    : flat_(model),
      binner_(bins),
      expected_(expected),
      requests_per_batch_(requests_per_batch),
      column_ptrs_(binner_.num_fields()) {
  const std::uint64_t n = holdout_raw.num_records() / kRowsPerRequest;
  BOOSTER_CHECK_MSG(n > 0, "holdout too small for one request");
  for (std::uint64_t i = 0; i < n; ++i) {
    requests_.push_back(
        predict_request(holdout_raw, i * kRowsPerRequest, kRowsPerRequest));
  }
}

void RequestPath::run(double seconds) {
  const std::int64_t start = now_ns();
  // The first slices make at least one full pass over the held-out rows.
  while (next_ < requests_.size() ||
         seconds_between(start, now_ns()) < seconds) {
    binner_.reset_columns(&columns_);
    first_rows_.clear();
    response_.clear();
    const std::int64_t t0 = now_ns();
    for (std::uint32_t k = 0; k < requests_per_batch_; ++k) {
      const std::uint64_t idx = (next_ + k) % requests_.size();
      serve::Request req;
      serve::ParseStatus status;
      {
        ScopedSpan s("serve.http.parse");
        std::size_t used = 0;
        status = parser_.consume(requests_[idx], &used, &req);
      }
      bool ok = status == serve::ParseStatus::kRequest;
      {
        ScopedSpan s("serve.row_binner");
        std::string_view b(req.body);
        while (ok && !b.empty()) {
          const std::size_t eol = b.find('\n');
          const std::string_view line = b.substr(0, eol);
          b.remove_prefix(eol == std::string_view::npos ? b.size() : eol + 1);
          if (!line.empty()) ok = binner_.append_csv(line, &columns_);
        }
      }
      if (!ok) ++result_.mismatches;
      first_rows_.push_back(idx * kRowsPerRequest);
    }
    const std::uint64_t rows = columns_.empty() ? 0 : columns_[0].size();
    out_.resize(rows);
    {
      ScopedSpan s("serve.predict");
      for (std::size_t f = 0; f < columns_.size(); ++f) {
        column_ptrs_[f] = columns_[f].data();
      }
      flat_.predict_many(column_ptrs_.data(), rows, out_);
    }
    {
      ScopedSpan s("serve.http.respond");
      for (std::size_t k = 0; k < first_rows_.size(); ++k) {
        body_.clear();
        append_predictions(&body_, std::span<const double>(out_).subspan(
                                       k * kRowsPerRequest, kRowsPerRequest));
        serve::append_response(&response_, 200, "text/plain", body_, true,
                               "X-Model-Version: 1\r\n");
      }
    }
    result_.latency_s.push_back(seconds_between(t0, now_ns()));
    result_.requests += first_rows_.size();
    result_.rows += rows;

    // Checked outside the timed region: the formatted text reads back to
    // the exact local prediction.
    for (std::size_t k = 0; k < first_rows_.size(); ++k) {
      body_.clear();
      append_predictions(&body_, std::span<const double>(out_).subspan(
                                     k * kRowsPerRequest, kRowsPerRequest));
      bool same = serve::parse_predictions(body_, &served_) &&
                  served_.size() == kRowsPerRequest;
      for (std::uint32_t i = 0; same && i < kRowsPerRequest; ++i) {
        same = served_[i] == expected_[first_rows_[k] + i];
      }
      if (!same) ++result_.mismatches;
    }
    next_ += requests_per_batch_;
  }
}

void report_predict_e2e(const RequestPathResult& r, Report* report) {
  report->attempt(r.mismatches == 0,
                  "in-process prediction differs from Model::predict");
  std::vector<double> ms;
  double busy_s = 0.0;
  for (const double s : r.latency_s) {
    ms.push_back(s * 1e3);
    busy_s += s;
  }
  report->extra("predict_p50_ms", percentile(ms, 0.50), "ms", ms.size());
  report->extra("predict_p99_ms", percentile(ms, 0.99), "ms", ms.size());
  report->e2e("predict_rows_per_s", static_cast<double>(r.rows) / busy_s,
              r.rows);
}

void report_serve_stages(const RequestPathResult& r, Report* report) {
  const auto totals = totals_by_name(SpanRecorder::global().spans());
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  const double reqs = static_cast<double>(r.requests);
  const double rows = static_cast<double>(r.rows);
  report->layer("serve.http.parse_us_per_req",
                total("serve.http.parse") * 1e6 / reqs, r.requests);
  report->layer("serve.row_binner.us_per_row",
                total("serve.row_binner") * 1e6 / rows, r.rows);
  report->layer("serve.predict.us_per_row",
                total("serve.predict") * 1e6 / rows, r.rows);
  report->layer("serve.http.respond_us_per_req",
                total("serve.http.respond") * 1e6 / reqs, r.requests);
}

void report_training_layers(const gbdt::TrainerConfig& cfg,
                            const gbdt::BinnedDataset& data, double train_s,
                            std::uint64_t reference_digest, Report* report) {
  SpanRecorder& rec = SpanRecorder::global();
  const std::size_t first_span = rec.spans().size();
  const std::int64_t t0 = now_ns();
  const gbdt::Model replayed = replay_train(cfg, data);
  const double replay_s = seconds_between(t0, now_ns());
  report->gate(model_digest(replayed) == reference_digest,
               "step replay model differs from Trainer::train");

  std::vector<Span> spans = rec.spans();
  spans.erase(spans.begin(), spans.begin() + static_cast<long>(first_span));
  for (Span& s : spans) s.parent -= static_cast<std::int32_t>(first_span);
  const auto totals = totals_by_name(spans);
  const auto self = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  const double replay_total = self("gbdt.replay") + self("gbdt.step1_hist") +
                              self("gbdt.step2_split") +
                              self("gbdt.step3_partition") +
                              self("gbdt.step5_traversal");

  // Counts and the analytic model's split come from the trainer's own
  // StepTrace for the same data.
  trace::StepTrace step_trace;
  trace::WorkloadInfo info;
  gbdt::Trainer(cfg).train(data, &step_trace, &info);
  const trace::StepTotals counts = step_trace.totals();
  const perf::StepBreakdown modeled =
      baselines::CpuLikeModel(baselines::sequential_cpu_params())
          .train_cost(step_trace, info);

  for (const StepDef& step : kSteps) {
    const double s = self(step.span);
    const double share = replay_total > 0.0 ? s / replay_total : 0.0;
    const std::string base = std::string("gbdt.") + step.name;
    report->layer(base + ".s", s);
    report->layer(base + ".share", share);
    const double model_share = modeled.fraction(step.kind);
    report->layer(std::string("perf.seq_cpu.") + step.name + ".share",
                  model_share);
    report->layer(std::string("perf.seq_cpu.") + step.name + ".error",
                  share - model_share);
  }
  report->layer("gbdt.step1_hist.record_fields", counts.record_field_updates);
  report->layer("gbdt.step2_split.bins_scanned", counts.bins_scanned);
  report->layer("gbdt.step3_partition.records", counts.partition_records);
  report->layer("gbdt.step5_traversal.record_hops",
                counts.traversal_record_hops);
  report->layer("gbdt.other.s", self("gbdt.replay"));
  report->layer("gbdt.replay_ratio", replay_s / train_s);
  report->layer("trace.overhead_s", replay_s - train_s);
}

void run_train(const Options& opt, Report* report) {
  const bool flight = opt.workload == "train-flight";
  const workloads::DatasetSpec spec =
      workloads::spec_by_name(flight ? "Flight" : "IoT");
  const std::uint64_t records = flight ? 1'000'000 : 200'000;
  const std::uint64_t holdout = 20'000;

  gbdt::TrainerConfig cfg;
  cfg.num_trees = 20;
  cfg.max_depth = 6;
  cfg.loss = spec.loss;
  // Two threads, not the default (nproc = 4 on a 4-vCPU virtual machine
  // that delivers about two cores): with four, one descheduled thread stalls
  // every fork/join, and train-iot's median train_s swung 1.2-5.6 s between
  // runs under host load; two threads swung 2.3-2.8 s in the same period.
  cfg.num_threads = 2;

  std::vector<double> setup_s;
  std::vector<double> binning_s;
  Prepared data;
  for (int i = 0; i < kSetups; ++i) {
    data = Prepared{};  // release the previous set-up's memory first
    const std::int64_t t0 = now_ns();
    data = prepare(spec, records, holdout, opt.seed);
    setup_s.push_back(seconds_between(t0, now_ns()));
    binning_s.push_back(data.binning_s);
  }
  report->e2e("setup_s", median(setup_s), setup_s.size());

  // The first call pays the lazy costs (pool threads, page faults); the
  // timed calls after it are warm.
  std::int64_t t0 = now_ns();
  const gbdt::TrainResult cold = gbdt::Trainer(cfg).train(data.train);
  const double cold_s = seconds_between(t0, now_ns());
  const std::uint64_t digest = model_digest(cold.model);
  const std::vector<double> expected = predict_all(cold.model, data.holdout);
  const double loss = logloss(expected, data.holdout_raw);

  // Timed training calls, each followed by a slice of the in-process
  // request path, so both sample the host over the whole run.
  RequestPath path(cold.model, data.train, data.holdout_raw, expected, 1);
  std::vector<double> train_s;
  double train_cpu_s = 0.0;
  const std::int64_t loop_start = now_ns();
  while (train_s.size() < 3 ||
         seconds_between(loop_start, now_ns()) < opt.seconds) {
    const double cpu0 = process_cpu_s();
    t0 = now_ns();
    const gbdt::TrainResult warm = gbdt::Trainer(cfg).train(data.train);
    train_s.push_back(seconds_between(t0, now_ns()));
    train_cpu_s += process_cpu_s() - cpu0;
    report->attempt(model_digest(warm.model) == digest,
                    "model digest differs across repeats");
    report->attempt(logloss(predict_all(warm.model, data.holdout),
                            data.holdout_raw) == loss,
                    "holdout_logloss differs across repeats");
    path.run(0.25 * train_s.back());
  }
  double train_wall_s = 0.0;
  for (const double s : train_s) train_wall_s += s;
  const double cpu_per_wall = train_cpu_s / train_wall_s;
  report->e2e("train_s", median(train_s), train_s.size());
  report->e2e("holdout_logloss", loss, data.holdout_raw.num_records());
  report_predict_e2e(path.result(), report);
  report->note("threads", std::to_string(cold.hot_path.threads));
  report->note("train_simd", cold.hot_path.simd);

  if (opt.traced) {
    report_serve_stages(path.result(), report);
    report->layer("gbdt.binning.s", median(binning_s), binning_s.size());
    report->layer("gbdt.cold_train.s", cold_s);
    report->layer("gbdt.hist_pool.allocations",
                  static_cast<double>(cold.hot_path.histogram_allocations));
    report->layer("util.thread_pool.threads", cold.hot_path.threads);
    report->layer("util.thread_pool.cpu_per_wall", cpu_per_wall);
    report_training_layers(cfg, data.train, median(train_s), digest, report);
  }
  report->e2e("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
