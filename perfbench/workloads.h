// The benchmark's workloads and the pieces they share. Each workload makes
// its inputs from the seed, sets itself up several times (set-up time is
// reported as the median), measures for the requested seconds with tracing
// off, and -- in a traced run -- repeats the measured calls inside spans to
// split the time by layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/dataset.h"
#include "gbdt/flat_ensemble.h"
#include "gbdt/trainer.h"
#include "report.h"
#include "serve/http.h"
#include "serve/row_binner.h"
#include "workloads/spec.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string span_path;  // where the traced run writes its spans
};

/// Set-ups per run; set-up time is their median.
inline constexpr int kSetups = 3;
/// Rows per prediction request (the serving workload's request shape).
inline constexpr std::uint32_t kRowsPerRequest = 8;

/// One set-up's inputs: training rows and held-out rows from one draw of
/// the synthetic generator, split by the seed, both binned with the
/// training rows' bins.
struct Prepared {
  booster::gbdt::Dataset raw;
  booster::gbdt::Dataset holdout_raw;
  booster::gbdt::BinnedDataset train;
  booster::gbdt::BinnedDataset holdout;
  double binning_s = 0.0;  // Binner::bin on the training rows
};

Prepared prepare(const booster::workloads::DatasetSpec& spec,
                 std::uint64_t records, std::uint64_t holdout_records,
                 std::uint64_t seed);

/// Mean binary log loss of task-space predictions against the labels.
double logloss(const std::vector<double>& probs,
               const booster::gbdt::Dataset& data);

/// Model::predict over every record.
std::vector<double> predict_all(const booster::gbdt::Model& model,
                                const booster::gbdt::BinnedDataset& data);

/// Full HTTP/1.1 POST /predict request for `count` CSV rows from `begin`.
std::string predict_request(const booster::gbdt::Dataset& data,
                            std::uint64_t begin, std::uint64_t count);

/// The server's per-request work run in-process on the workload's own
/// bytes: RequestParser::consume, RowBinner::append_csv, one
/// FlatEnsemble::predict_many over `requests_per_batch` requests' rows, and
/// append_response -- each call inside a span when tracing is on. Every
/// prediction is checked bitwise against `expected`. run() may be called
/// in slices; results accumulate.
struct RequestPathResult {
  std::vector<double> latency_s;  // per batch, all four stages
  std::uint64_t requests = 0;
  std::uint64_t rows = 0;
  std::uint64_t mismatches = 0;
};

class RequestPath {
 public:
  RequestPath(const booster::gbdt::Model& model,
              const booster::gbdt::BinnedDataset& bins,
              const booster::gbdt::Dataset& holdout_raw,
              const std::vector<double>& expected,
              std::uint32_t requests_per_batch);

  /// Runs batches for `seconds` (the first slices also finish one full
  /// pass over the held-out rows).
  void run(double seconds);
  const RequestPathResult& result() const { return result_; }

 private:
  const booster::gbdt::FlatEnsemble flat_;
  const booster::serve::RowBinner binner_;
  const std::vector<double>& expected_;
  const std::uint32_t requests_per_batch_;
  std::vector<std::string> requests_;
  std::uint64_t next_ = 0;
  booster::serve::RequestParser parser_;
  std::vector<std::vector<booster::gbdt::BinIndex>> columns_;
  std::vector<const booster::gbdt::BinIndex*> column_ptrs_;
  std::vector<double> out_;
  std::vector<double> served_;
  std::vector<std::uint64_t> first_rows_;
  std::string body_;
  std::string response_;
  RequestPathResult result_;
};

/// predict_rows_per_s of an in-process request path run, plus its printed
/// per-request p50/p99 (the single-process workloads' prediction metrics);
/// counts the run's predictions as one checked operation.
void report_predict_e2e(const RequestPathResult& r, Report* report);
/// serve.* per-stage metrics from the spans of a traced request path run.
void report_serve_stages(const RequestPathResult& r, Report* report);

/// Per-layer metrics of a traced training replay: per-step self time and
/// share, the seq-cpu model's share for the same StepTrace, the counts, and
/// the replay's ratio to the untraced train time.
void report_training_layers(const booster::gbdt::TrainerConfig& cfg,
                            const booster::gbdt::BinnedDataset& data,
                            double train_s,
                            std::uint64_t reference_digest, Report* report);

void run_train(const Options& opt, Report* report);
void run_serve(const Options& opt, Report* report);
void run_dist(const Options& opt, Report* report);

}  // namespace perfbench
