#include "gbdt/binning.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "util/check.h"
#include "util/rng.h"

namespace booster::gbdt {

std::uint64_t BinnedDataset::total_bins() const {
  std::uint64_t total = 0;
  for (const auto& f : fields_) total += f.num_bins;
  return total;
}

std::uint32_t BinnedDataset::max_bins_per_field() const {
  std::uint32_t m = 0;
  for (const auto& f : fields_) m = std::max(m, f.num_bins);
  return m;
}

void BinnedDataset::ensure_row_major() const {
  // Double-checked: after the first build this is one acquire load, so the
  // per-histogram-build calls in the hot loop never touch the mutex. The
  // mutex (function-local, shared by all instances) only serializes
  // concurrent *first* calls, e.g. two threads each running Trainer::train
  // on one shared dataset.
  if (row_major_built_.load(std::memory_order_acquire)) return;
  static std::mutex mutex;
  const std::scoped_lock lock(mutex);
  if (row_major_built_.load(std::memory_order_relaxed)) return;
  const std::uint32_t num_fields = this->num_fields();
  row_major_.resize(num_records_ * num_fields);
  for (std::uint32_t f = 0; f < num_fields; ++f) {
    const auto& col = columns_[f];
    for (std::uint64_t r = 0; r < num_records_; ++r) {
      row_major_[r * num_fields + f] = col[r];
    }
  }
  row_major_built_.store(true, std::memory_order_release);
}

namespace {

/// Computes up to `max_bins` quantile upper boundaries from the non-missing
/// values of a numeric column sample.
std::vector<float> quantile_bounds(std::vector<float> sample,
                                   std::uint32_t max_bins) {
  std::sort(sample.begin(), sample.end());
  sample.erase(std::unique(sample.begin(), sample.end()), sample.end());
  std::vector<float> bounds;
  if (sample.empty()) return bounds;
  const std::size_t distinct = sample.size();
  const std::uint32_t bins =
      static_cast<std::uint32_t>(std::min<std::size_t>(max_bins, distinct));
  bounds.reserve(bins);
  for (std::uint32_t b = 1; b <= bins; ++b) {
    // Upper boundary of bin b: the (b/bins)-quantile of distinct values.
    const std::size_t idx =
        std::min(distinct - 1,
                 static_cast<std::size_t>(
                     std::ceil(static_cast<double>(b) * distinct / bins)) -
                     1);
    bounds.push_back(sample[idx]);
  }
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  return bounds;
}

/// Returns the 1-based value-bin index for v given sorted, non-empty upper
/// bounds: the first bin whose upper boundary is >= v (clamped to the last
/// bin). A branchless lower bound: the partition point lies in
/// [base, base + n] throughout, each step halves n with an arithmetic
/// select, and the trip count depends on bounds.size() alone, so the one
/// branch left is the loop's, which predicts perfectly. Keep the select a
/// multiply (see numeric_value_bin in binning.h for why).
BinIndex numeric_bin(float v, const std::vector<float>& bounds) {
  const float* base = bounds.data();
  std::size_t n = bounds.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    base += static_cast<std::size_t>(base[half - 1] < v) * half;
    n -= half;
  }
  base += static_cast<std::size_t>(*base < v);
  const auto idx = static_cast<std::size_t>(base - bounds.data());
  const auto clamped = std::min(idx, bounds.size() - 1);
  return static_cast<BinIndex>(clamped + 1);  // +1: bin 0 is missing
}

}  // namespace

BinIndex numeric_value_bin(float v, const FieldBins& fb) {
  if (std::isnan(v) || fb.upper_bounds.empty()) return BinIndex{0};
  return numeric_bin(v, fb.upper_bounds);
}

BinIndex categorical_value_bin(std::int32_t v, const FieldBins& fb) {
  if (v < 0 || v + 1 >= static_cast<std::int32_t>(fb.num_bins)) {
    return BinIndex{0};  // missing or unseen category: the "absent" bin
  }
  return static_cast<BinIndex>(v + 1);
}

BinnedDataset Binner::bin(const Dataset& data) const {
  BinnedDataset out;
  const std::uint64_t n = data.num_records();
  out.num_records_ = n;
  out.labels_ = data.labels();
  out.fields_.resize(data.num_fields());
  out.columns_.resize(data.num_fields());

  // Deterministic record indices for the quantile sketch: every record when
  // the dataset fits the sample budget (sampling with replacement would
  // miss values on small data), a random sample otherwise.
  util::Rng rng(0x5EEDB1A5ULL);
  const std::uint64_t sample_n = std::min<std::uint64_t>(cfg_.quantile_sample, n);
  std::vector<std::uint64_t> sample_idx(sample_n);
  if (sample_n == n) {
    for (std::uint64_t i = 0; i < n; ++i) sample_idx[i] = i;
  } else {
    for (auto& idx : sample_idx) idx = rng.next_below(n == 0 ? 1 : n);
  }

  std::vector<std::uint32_t> features_per_field(data.num_fields());

  for (std::uint32_t f = 0; f < data.num_fields(); ++f) {
    const FieldSchema& schema = data.field(f);
    FieldBins& fb = out.fields_[f];
    fb.kind = schema.kind;
    auto& col = out.columns_[f];
    col.resize(n);

    if (schema.kind == FieldKind::kNumeric) {
      std::vector<float> sample;
      sample.reserve(sample_n);
      for (std::uint64_t idx : sample_idx) {
        const float v = data.numeric_value(f, idx);
        if (!std::isnan(v)) sample.push_back(v);
      }
      fb.upper_bounds = quantile_bounds(std::move(sample), cfg_.max_numeric_bins);
      const std::uint32_t value_bins =
          std::max<std::uint32_t>(1, static_cast<std::uint32_t>(fb.upper_bounds.size()));
      fb.num_bins = value_bins + 1;  // + missing bin
      for (std::uint64_t r = 0; r < n; ++r) {
        col[r] = numeric_value_bin(data.numeric_value(f, r), fb);
      }
      features_per_field[f] = fb.num_bins;
    } else {
      fb.num_bins = schema.cardinality + 1;  // + absent bin
      for (std::uint64_t r = 0; r < n; ++r) {
        const std::int32_t v = data.categorical_value(f, r);
        BOOSTER_DCHECK(v == kMissingCategory ||
                       v < static_cast<std::int32_t>(schema.cardinality));
        col[r] = categorical_value_bin(v, fb);
      }
      features_per_field[f] = fb.num_bins;
    }
  }

  out.layout_ = RecordLayout::from_field_features(features_per_field);
  return out;
}

}  // namespace booster::gbdt
