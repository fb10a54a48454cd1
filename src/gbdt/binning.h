// Pre-processing (paper §II-A): discretizes numeric fields into quantile
// histogram bins, maps categorical fields to per-category bins, and reserves
// bin 0 of every field for missing values (the "absent" bin). The result is
// the BinnedDataset every training step operates on.
//
// Bin index layout per field:
//   bin 0            -> missing / absent
//   bins 1..k        -> numeric quantile bins (left-to-right value order)
//   bins 1..C        -> categorical categories ("yes" bins of the one-hot
//                       features; the "no" sums are reconstructed by
//                       subtraction, per the LightGBM optimization the
//                       paper adopts)
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "gbdt/dataset.h"
#include "gbdt/layout.h"

namespace booster::stream {
class FrozenBinMap;
}

namespace booster::gbdt {

/// Bin index within a field. uint16 functionally; the hardware layout packs
/// one byte per field and spreads >256-bin fields over SRAM groups
/// (paper §III-C extension 3) -- layout.h accounts for the extra bytes.
using BinIndex = std::uint16_t;

struct BinningConfig {
  /// Maximum value bins per numeric field, *excluding* the missing bin.
  /// The paper uses 128-256 in practice; 255 value bins + 1 missing bin
  /// keeps a numeric field within one byte.
  std::uint32_t max_numeric_bins = 255;
  /// Number of records sampled to build the quantile sketch.
  std::uint64_t quantile_sample = 100000;
};

/// Per-field binning metadata.
struct FieldBins {
  FieldKind kind = FieldKind::kNumeric;
  /// Total bins including the missing bin.
  std::uint32_t num_bins = 0;
  /// Upper boundaries of numeric value bins (size num_bins - 1 for numeric
  /// fields); value v falls in the first bin whose boundary is >= v.
  std::vector<float> upper_bounds;
};

/// Bins one raw numeric value against frozen field metadata: NaN (or a
/// field with no value bins) goes to missing bin 0; otherwise the first
/// value bin whose upper boundary is >= v, clamped to the last bin. This
/// is the *one* numeric binning rule -- the Binner uses it at training
/// time, stream::FrozenBinMap per chunk and serve::RowBinner per request,
/// so a served row can never bin differently than training did.
///
/// The search is branchless (same partition point as std::lower_bound for
/// every non-NaN v, so the bins are too): each halving step advances by
/// `std::size_t(bound < v) * half`. The multiply form matters -- GCC
/// compiles it to seta/imul, whereas std::lower_bound and the
/// `cond ? a : b` form compile to a data-dependent jump that mispredicts
/// on about every other level, which made this rule most of the cost of
/// binning a served row and of Binner::bin.
BinIndex numeric_value_bin(float v, const FieldBins& fb);

/// Same for a categorical value: kMissingCategory maps to bin 0, category
/// c to bin c + 1. Out-of-range categories (negative or beyond the frozen
/// cardinality) also map to the missing bin -- a serving request may carry
/// categories the training schema never saw, and "unknown" already has
/// learned routing (the missing default).
BinIndex categorical_value_bin(std::int32_t v, const FieldBins& fb);

/// The binned dataset: column-major bin indices per field plus a packed
/// row-major bin matrix and the layout descriptor for byte accounting.
/// Keeping both views materialized is the "redundant format" of the paper's
/// third contribution: the per-field columns serve single-predicate steps
/// (partition, traversal), while the row-major matrix serves histogram
/// construction, whose inner loop reads every field of a record -- one
/// contiguous F-entry run per record instead of F strided column gathers.
class BinnedDataset {
 public:
  BinnedDataset() = default;
  // The atomic row-major flag is not copyable/movable, so spell out the
  // special members (copying/moving while another thread builds the view
  // is a caller error, same as for the data vectors themselves).
  BinnedDataset(const BinnedDataset& o)
      : fields_(o.fields_),
        columns_(o.columns_),
        row_major_(o.row_major_),
        labels_(o.labels_),
        num_records_(o.num_records_),
        layout_(o.layout_) {
    row_major_built_.store(o.row_major_built_.load());
  }
  BinnedDataset(BinnedDataset&& o) noexcept
      : fields_(std::move(o.fields_)),
        columns_(std::move(o.columns_)),
        row_major_(std::move(o.row_major_)),
        labels_(std::move(o.labels_)),
        num_records_(o.num_records_),
        layout_(std::move(o.layout_)) {
    row_major_built_.store(o.row_major_built_.load());
    // Leave the source empty-but-valid: its vectors were pilfered, so the
    // built flag and record count must not claim otherwise (a stale
    // row_major_built_ == true would make row_major_bins() hand out a
    // pointer into emptied storage).
    o.row_major_built_.store(false);
    o.num_records_ = 0;
  }
  BinnedDataset& operator=(const BinnedDataset& o) {
    if (this != &o) *this = BinnedDataset(o);
    return *this;
  }
  BinnedDataset& operator=(BinnedDataset&& o) noexcept {
    fields_ = std::move(o.fields_);
    columns_ = std::move(o.columns_);
    row_major_ = std::move(o.row_major_);
    labels_ = std::move(o.labels_);
    num_records_ = o.num_records_;
    layout_ = std::move(o.layout_);
    row_major_built_.store(o.row_major_built_.load());
    o.row_major_built_.store(false);
    o.num_records_ = 0;
    return *this;
  }

  std::uint64_t num_records() const { return num_records_; }
  std::uint32_t num_fields() const {
    return static_cast<std::uint32_t>(fields_.size());
  }
  const FieldBins& field_bins(std::uint32_t f) const { return fields_[f]; }

  BinIndex bin(std::uint32_t field, std::uint64_t record) const {
    return columns_[field][record];
  }
  /// Full column of one field (the hardware streams exactly this array in
  /// the single-predicate step).
  const std::vector<BinIndex>& column(std::uint32_t field) const {
    return columns_[field];
  }

  /// Packed row-major bin matrix: record r's bins occupy
  /// [r * num_fields, (r + 1) * num_fields). The histogram build kernel
  /// streams this directly. Only valid after ensure_row_major().
  const BinIndex* row_major_bins() const { return row_major_.data(); }

  /// Materializes the redundant row-major view on first call; later calls
  /// are a relaxed atomic load. Lazy so that consumers that never build
  /// histograms (perf models, metrics, inference) don't pay the
  /// num_records * num_fields * sizeof(BinIndex) footprint or the
  /// transpose. Thread-safe: concurrent first calls (e.g. two threads each
  /// running Trainer::train on one shared dataset) serialize on a mutex;
  /// once built the view is never written again.
  void ensure_row_major() const;

  const std::vector<float>& labels() const { return labels_; }

  /// Total histogram bins over all fields (missing bins included).
  std::uint64_t total_bins() const;

  std::uint32_t max_bins_per_field() const;

  /// Byte-accounting descriptor for the performance models.
  const RecordLayout& layout() const { return layout_; }

  friend class Binner;
  // The streaming path builds chunk datasets against frozen bin metadata
  // out-of-core, reusing recycled arenas in place of Binner's fresh ones.
  friend class booster::stream::FrozenBinMap;

 private:
  std::vector<FieldBins> fields_;
  std::vector<std::vector<BinIndex>> columns_;  // [field][record]
  // Lazily-built redundant row-major view ([record * num_fields + field]);
  // mutable so ensure_row_major() stays const for read-only consumers.
  mutable std::vector<BinIndex> row_major_;
  mutable std::atomic<bool> row_major_built_{false};
  std::vector<float> labels_;
  std::uint64_t num_records_ = 0;
  RecordLayout layout_;
};

/// Builds BinnedDatasets from raw Datasets.
class Binner {
 public:
  explicit Binner(BinningConfig cfg = {}) : cfg_(cfg) {}

  /// Computes quantile cut points (numeric fields) from a sample of the
  /// data, then bins every record. Deterministic.
  BinnedDataset bin(const Dataset& data) const;

 private:
  BinningConfig cfg_;
};

}  // namespace booster::gbdt
