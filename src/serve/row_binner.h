// Serving-side row binning: a frozen copy of the training-time bin
// metadata (gbdt::FieldBins per field) that maps one raw feature row --
// parsed from a request body -- to per-field bin indices. Uses the exact
// same binning rules as the trainer's Binner (gbdt::numeric_value_bin /
// categorical_value_bin are shared code, not a reimplementation), which is
// what makes served predictions bit-identical to local Model::predict on
// the same raw values.
//
// Rows are appended column-major into caller-owned per-field vectors --
// the staging buffers the server hands to FlatEnsemble's column-pointer
// batch entry -- so binning a request allocates nothing once the staging
// capacity is warm.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "gbdt/binning.h"

namespace booster::sim {
class Json;
}

namespace booster::serve {

class RowBinner {
 public:
  /// Freezes the bin metadata of the dataset the model was trained on.
  explicit RowBinner(const gbdt::BinnedDataset& data);

  std::uint32_t num_fields() const {
    return static_cast<std::uint32_t>(fields_.size());
  }
  const gbdt::FieldBins& field_bins(std::uint32_t f) const {
    return fields_[f];
  }

  /// Bins one CSV row ("cell,cell,..."; empty cell or "nan" = missing;
  /// numeric cells parse as float32, categorical cells as integers) and
  /// appends one bin per field to `columns` (size num_fields). Each bin is
  /// pushed as its cell parses; on wrong arity or an unparsable cell the
  /// row's pushed bins are popped again and it returns false, so a
  /// rejected row leaves every column's size and contents unchanged.
  bool append_csv(std::string_view line,
                  std::vector<std::vector<gbdt::BinIndex>>* columns) const;

  /// Bins one JSON row (an array with one number-or-null per field; null =
  /// missing; a categorical cell must be an integer in int32 range). Same
  /// contract as append_csv.
  bool append_json(const sim::Json& row,
                   std::vector<std::vector<gbdt::BinIndex>>* columns) const;

  /// Sizes `columns` to num_fields and clears each column, preserving
  /// capacity -- call once per batch.
  void reset_columns(std::vector<std::vector<gbdt::BinIndex>>* columns) const;

 private:
  std::vector<gbdt::FieldBins> fields_;
};

}  // namespace booster::serve
