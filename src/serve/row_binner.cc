#include "serve/row_binner.h"

#include <charconv>
#include <cmath>
#include <limits>

#include "sim/json.h"

namespace booster::serve {

namespace {

/// One raw cell, in the field's native type. Parse failures are distinct
/// from missing: a missing value has learned routing, garbage does not.
struct Cell {
  bool ok = false;
  bool missing = false;
  float numeric = 0.0f;
  std::int32_t categorical = 0;
};

Cell parse_cell(std::string_view text, gbdt::FieldKind kind) {
  Cell cell;
  if (text.empty() || text == "nan" || text == "NaN") {
    cell.ok = cell.missing = true;
    return cell;
  }
  if (kind == gbdt::FieldKind::kNumeric) {
    // Direct text->float32 parse (correctly rounded): a value formatted
    // with >= 9 significant digits round-trips to the identical float the
    // client started from -- the first link in the bit-identity chain.
    const auto [end, ec] = std::from_chars(
        text.data(), text.data() + text.size(), cell.numeric);
    cell.ok = ec == std::errc() && end == text.data() + text.size();
  } else {
    const auto [end, ec] = std::from_chars(
        text.data(), text.data() + text.size(), cell.categorical);
    cell.ok = ec == std::errc() && end == text.data() + text.size();
  }
  return cell;
}

gbdt::BinIndex bin_cell(const Cell& cell, const gbdt::FieldBins& fb) {
  if (cell.missing) return gbdt::BinIndex{0};
  return fb.kind == gbdt::FieldKind::kNumeric
             ? gbdt::numeric_value_bin(cell.numeric, fb)
             : gbdt::categorical_value_bin(cell.categorical, fb);
}

/// Rejects a row after its first `pushed` cells were staged: pops their
/// bins so every column is back to its size before the row. Returns false
/// (the append's result) for the caller to return.
bool unstage(std::vector<std::vector<gbdt::BinIndex>>* columns,
             std::uint32_t pushed) {
  for (std::uint32_t f = 0; f < pushed; ++f) (*columns)[f].pop_back();
  return false;
}

}  // namespace

RowBinner::RowBinner(const gbdt::BinnedDataset& data) {
  fields_.reserve(data.num_fields());
  for (std::uint32_t f = 0; f < data.num_fields(); ++f) {
    fields_.push_back(data.field_bins(f));
  }
}

void RowBinner::reset_columns(
    std::vector<std::vector<gbdt::BinIndex>>* columns) const {
  columns->resize(fields_.size());
  for (auto& col : *columns) col.clear();
}

bool RowBinner::append_csv(
    std::string_view line,
    std::vector<std::vector<gbdt::BinIndex>>* columns) const {
  // Each cell's bin goes straight into the caller's column as it parses;
  // a malformed row pops the f bins it pushed, leaving the staged batch as
  // it was.
  std::size_t pos = 0;
  std::uint32_t f = 0;
  while (true) {
    if (f >= fields_.size()) return unstage(columns, f);  // too many cells
    const std::size_t comma = line.find(',', pos);
    const std::string_view cell_text =
        comma == std::string_view::npos ? line.substr(pos)
                                        : line.substr(pos, comma - pos);
    const Cell cell = parse_cell(cell_text, fields_[f].kind);
    if (!cell.ok) return unstage(columns, f);
    (*columns)[f].push_back(bin_cell(cell, fields_[f]));
    ++f;
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  if (f != fields_.size()) return unstage(columns, f);  // too few cells
  return true;
}

bool RowBinner::append_json(
    const sim::Json& row,
    std::vector<std::vector<gbdt::BinIndex>>* columns) const {
  if (!row.is_array() || row.size() != fields_.size()) return false;
  for (std::uint32_t f = 0; f < fields_.size(); ++f) {
    const sim::Json& v = row.items()[f];
    Cell cell;
    if (v.is_null()) {
      cell.ok = cell.missing = true;
    } else if (v.is_number()) {
      cell.ok = true;
      const double d = v.as_double();
      if (fields_[f].kind == gbdt::FieldKind::kNumeric) {
        // JSON numbers are doubles; a client serializing a float32 sends
        // a double exactly equal to it, so this narrowing is exact for
        // round-tripped values (and NaN text is not valid JSON -- missing
        // is spelled null).
        cell.numeric = static_cast<float>(d);
        if (std::isnan(cell.numeric)) cell.missing = true;
      } else {
        // Range-check before the cast: converting an out-of-range double
        // to int32 is undefined behaviour.
        constexpr double kMin = std::numeric_limits<std::int32_t>::min();
        constexpr double kMax = std::numeric_limits<std::int32_t>::max();
        if (!(d >= kMin && d <= kMax)) return unstage(columns, f);
        const auto i = static_cast<std::int32_t>(d);
        if (static_cast<double>(i) != d) {
          return unstage(columns, f);  // non-integer category
        }
        cell.categorical = i;
      }
    } else {
      return unstage(columns, f);
    }
    (*columns)[f].push_back(bin_cell(cell, fields_[f]));
  }
  return true;
}

}  // namespace booster::serve
