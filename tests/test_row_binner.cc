// serve::RowBinner against the trainer's Binner: rows formatted by the
// serving client's own formatters (csv_rows / json_rows) from a random
// mixed dataset must bin to exactly the BinnedDataset's columns -- NaN
// cells, missing categories and categories the training schema never saw
// included -- and a malformed row must leave every staged column's size
// and contents unchanged (bins are staged in place and popped on reject).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/dataset.h"
#include "serve/client.h"
#include "serve/row_binner.h"
#include "sim/json.h"
#include "util/rng.h"

namespace booster::serve {
namespace {

using Columns = std::vector<std::vector<gbdt::BinIndex>>;

constexpr std::uint64_t kRows = 600;
constexpr std::uint32_t kCardinality = 7;

/// Alternating numeric and categorical fields (the last field is
/// categorical, the one before it numeric), with NaN cells and missing
/// categories, and numeric values spread over many magnitudes and signs so
/// the quantile bounds are irregular.
gbdt::Dataset random_mixed_dataset(std::uint64_t seed) {
  gbdt::Dataset d;
  for (const char* name : {"x0", "c1", "x2", "c3", "x4", "c5"}) {
    if (name[0] == 'x') {
      d.add_numeric_field(name);
    } else {
      d.add_categorical_field(name, kCardinality);
    }
  }
  d.resize(kRows);
  util::Rng rng(seed);
  for (std::uint64_t r = 0; r < kRows; ++r) {
    for (std::uint32_t f = 0; f < d.num_fields(); ++f) {
      const bool missing = rng.bernoulli(0.1);
      if (d.field(f).kind == gbdt::FieldKind::kNumeric) {
        d.set_numeric(f, r,
                      missing ? std::numeric_limits<float>::quiet_NaN()
                              : static_cast<float>(
                                    rng.normal() *
                                    std::pow(10.0, rng.uniform(-3.0, 3.0))));
      } else {
        d.set_categorical(
            f, r,
            missing ? gbdt::kMissingCategory
                    : static_cast<std::int32_t>(rng.next_below(kCardinality)));
      }
    }
    d.set_label(r, static_cast<float>(rng.bernoulli(0.5)));
  }
  return d;
}

std::vector<std::string_view> lines_of(std::string_view body) {
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const std::size_t eol = body.find('\n', pos);
    lines.push_back(body.substr(pos, eol - pos));
    pos = eol == std::string_view::npos ? body.size() : eol + 1;
  }
  return lines;
}

/// The binned dataset's columns, as a staging buffer would hold them.
Columns expected_columns(const gbdt::BinnedDataset& binned) {
  Columns cols;
  for (std::uint32_t f = 0; f < binned.num_fields(); ++f) {
    cols.push_back(binned.column(f));
  }
  return cols;
}

TEST(RowBinner, CsvRowsBinExactlyLikeTheBinner) {
  const gbdt::Dataset raw = random_mixed_dataset(0x20B1);
  const gbdt::BinnedDataset binned = gbdt::Binner().bin(raw);
  const RowBinner binner(binned);
  ASSERT_EQ(binner.num_fields(), raw.num_fields());

  Columns got;
  binner.reset_columns(&got);
  const std::string body = csv_rows(raw, 0, kRows);
  for (const std::string_view line : lines_of(body)) {
    ASSERT_TRUE(binner.append_csv(line, &got)) << line;
  }
  EXPECT_EQ(got, expected_columns(binned));
}

TEST(RowBinner, JsonRowsBinExactlyLikeTheBinner) {
  const gbdt::Dataset raw = random_mixed_dataset(0x20B2);
  const gbdt::BinnedDataset binned = gbdt::Binner().bin(raw);
  const RowBinner binner(binned);

  std::string error;
  const auto rows = sim::Json::parse(json_rows(raw, 0, kRows), &error);
  ASSERT_TRUE(rows.has_value()) << error;
  Columns got;
  binner.reset_columns(&got);
  for (const sim::Json& row : rows->items()) {
    ASSERT_TRUE(binner.append_json(row, &got));
  }
  EXPECT_EQ(got, expected_columns(binned));
}

TEST(RowBinner, UnseenCategoriesBinToMissing) {
  const gbdt::Dataset raw = random_mixed_dataset(0x20B3);
  const gbdt::BinnedDataset binned = gbdt::Binner().bin(raw);
  const RowBinner binner(binned);

  // Queries carry categories the training schema never saw: past the
  // cardinality, and negative ones other than the missing sentinel.
  gbdt::Dataset queries = raw;
  Columns want = expected_columns(binned);
  util::Rng rng(0x20B4);
  for (std::uint64_t r = 0; r < kRows; ++r) {
    for (std::uint32_t f = 0; f < raw.num_fields(); ++f) {
      if (raw.field(f).kind != gbdt::FieldKind::kCategorical ||
          !rng.bernoulli(0.2)) {
        continue;
      }
      const std::int32_t unseen =
          rng.bernoulli(0.5)
              ? static_cast<std::int32_t>(kCardinality + rng.next_below(5))
              : -2 - static_cast<std::int32_t>(rng.next_below(5));
      queries.set_categorical(f, r, unseen);
      want[f][r] = 0;
    }
  }
  Columns got;
  binner.reset_columns(&got);
  const std::string body = csv_rows(queries, 0, kRows);
  for (const std::string_view line : lines_of(body)) {
    ASSERT_TRUE(binner.append_csv(line, &got)) << line;
  }
  EXPECT_EQ(got, want);
}

/// Cells of the row "1.5,2,-3.25,0,4e-2,6" with cell `field` replaced.
std::string with_cell(std::uint32_t field, const std::string& text) {
  std::vector<std::string> cells = {"1.5", "2", "-3.25", "0", "4e-2", "6"};
  cells.at(field) = text;
  std::string out;
  for (const std::string& cell : cells) {
    if (!out.empty()) out += ',';
    out += cell;
  }
  return out;
}

TEST(RowBinner, MalformedCsvRowsLeaveEveryColumnUnchanged) {
  const gbdt::Dataset raw = random_mixed_dataset(0x20B5);
  const gbdt::BinnedDataset binned = gbdt::Binner().bin(raw);
  const RowBinner binner(binned);
  const std::uint32_t last = raw.num_fields() - 1;  // categorical
  ASSERT_EQ(raw.field(last).kind, gbdt::FieldKind::kCategorical);
  ASSERT_EQ(raw.field(last - 1).kind, gbdt::FieldKind::kNumeric);

  // A row with every cell present, so each malformation below is rejected
  // only after the bins of the cells before it were already pushed.
  const std::string good = "1.5,2,-3.25,0,4e-2,6";
  Columns staged;
  binner.reset_columns(&staged);
  const std::string body = csv_rows(raw, 0, 5);
  for (const std::string_view line : lines_of(body)) {
    ASSERT_TRUE(binner.append_csv(line, &staged)) << line;
  }
  ASSERT_TRUE(binner.append_csv(good, &staged));
  const Columns before = staged;

  const std::vector<std::string> malformed = {
      "1.5,2,-3.25,0,4e-2",         // too few cells
      good + ",1",                  // too many cells
      with_cell(last - 1, "1.5x"),  // trailing garbage, numeric
      with_cell(0, "1.5x"),         // ... in the first cell
      with_cell(last, "2.5"),       // non-integer category
      with_cell(last, "1.5x"),      // garbage category
      with_cell(2, "--1"),          // unparsable numeric
  };
  for (const std::string& line : malformed) {
    EXPECT_FALSE(binner.append_csv(line, &staged)) << line;
    EXPECT_EQ(staged, before) << "rejected row left bins staged: " << line;
  }
  // The staged batch still accepts rows afterwards, in the right columns.
  ASSERT_TRUE(binner.append_csv(good, &staged));
  for (std::uint32_t f = 0; f < binner.num_fields(); ++f) {
    ASSERT_EQ(staged[f].size(), before[f].size() + 1);
    EXPECT_EQ(staged[f].back(), before[f].back()) << "field " << f;
  }
}

TEST(RowBinner, MalformedJsonRowsLeaveEveryColumnUnchanged) {
  const gbdt::Dataset raw = random_mixed_dataset(0x20B6);
  const gbdt::BinnedDataset binned = gbdt::Binner().bin(raw);
  const RowBinner binner(binned);

  Columns staged;
  binner.reset_columns(&staged);
  std::string error;
  const auto good = sim::Json::parse("[1.5, 2, -3.25, 0, 0.04, 6]", &error);
  ASSERT_TRUE(good.has_value()) << error;
  ASSERT_TRUE(binner.append_json(*good, &staged));
  const Columns before = staged;

  for (const char* text : {
           "[1.5, 2, -3.25, 0, 0.04]",           // too few cells
           "[1.5, 2, -3.25, 0, 0.04, 6, 1]",     // too many cells
           "[1.5, 2, -3.25, 0, 0.04, 2.5]",      // non-integer category
           "[1.5, 2, -3.25, 0, 0.04, 1e20]",     // category beyond int32
           "[1.5, 2, -3.25, 0, 0.04, \"6\"]",    // string cell
       }) {
    const auto row = sim::Json::parse(text, &error);
    ASSERT_TRUE(row.has_value()) << error;
    EXPECT_FALSE(binner.append_json(*row, &staged)) << text;
    EXPECT_EQ(staged, before) << "rejected row left bins staged: " << text;
  }
}

}  // namespace
}  // namespace booster::serve
