#include "gbdt/binning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "util/rng.h"

namespace booster::gbdt {
namespace {

Dataset make_numeric_dataset(std::uint64_t n) {
  Dataset d;
  d.add_numeric_field("x");
  d.resize(n);
  for (std::uint64_t r = 0; r < n; ++r) {
    d.set_numeric(0, r, static_cast<float>(r));
  }
  return d;
}

TEST(Binner, MissingValuesLandInBinZero) {
  Dataset d;
  d.add_numeric_field("x");
  d.add_categorical_field("c", 4);
  d.resize(3);
  d.set_numeric(0, 0, 1.0f);  // record 1,2 numeric stay NaN
  d.set_categorical(1, 0, 2);  // record 1,2 categorical stay missing
  const auto binned = Binner().bin(d);
  EXPECT_NE(binned.bin(0, 0), 0);
  EXPECT_EQ(binned.bin(0, 1), 0);
  EXPECT_EQ(binned.bin(1, 1), 0);
  EXPECT_EQ(binned.bin(1, 0), 3);  // category 2 -> bin 3 (offset by missing)
}

TEST(Binner, NumericBinsAreOrderPreserving) {
  const auto binned = Binner().bin(make_numeric_dataset(1000));
  for (std::uint64_t r = 1; r < 1000; ++r) {
    EXPECT_LE(binned.bin(0, r - 1), binned.bin(0, r))
        << "larger values must land in equal-or-higher bins";
  }
}

TEST(Binner, RespectsMaxNumericBins) {
  BinningConfig cfg;
  cfg.max_numeric_bins = 16;
  const auto binned = Binner(cfg).bin(make_numeric_dataset(10000));
  EXPECT_LE(binned.field_bins(0).num_bins, 17u);  // 16 value bins + missing
  EXPECT_GE(binned.field_bins(0).num_bins, 2u);
}

TEST(Binner, FewDistinctValuesFewBins) {
  Dataset d;
  d.add_numeric_field("x");
  d.resize(100);
  for (std::uint64_t r = 0; r < 100; ++r) {
    d.set_numeric(0, r, static_cast<float>(r % 3));
  }
  const auto binned = Binner().bin(d);
  EXPECT_EQ(binned.field_bins(0).num_bins, 4u);  // 3 values + missing
}

TEST(Binner, CategoricalBinsAreCategoryPlusOne) {
  Dataset d;
  d.add_categorical_field("c", 6);
  d.resize(6);
  for (std::uint64_t r = 0; r < 6; ++r) {
    d.set_categorical(0, r, static_cast<std::int32_t>(r));
  }
  const auto binned = Binner().bin(d);
  EXPECT_EQ(binned.field_bins(0).num_bins, 7u);
  for (std::uint64_t r = 0; r < 6; ++r) {
    EXPECT_EQ(binned.bin(0, r), r + 1);
  }
}

TEST(Binner, QuantileBinsBalanceCounts) {
  BinningConfig cfg;
  cfg.max_numeric_bins = 4;
  const auto binned = Binner(cfg).bin(make_numeric_dataset(4000));
  std::vector<int> counts(binned.field_bins(0).num_bins, 0);
  for (std::uint64_t r = 0; r < 4000; ++r) ++counts[binned.bin(0, r)];
  // Uniform data over 4 quantile bins: each value bin near 1000.
  for (std::size_t b = 1; b < counts.size(); ++b) {
    EXPECT_NEAR(counts[b], 1000, 150);
  }
}

TEST(Binner, ColumnViewMatchesBinAccessor) {
  const auto binned = Binner().bin(make_numeric_dataset(50));
  const auto& col = binned.column(0);
  ASSERT_EQ(col.size(), 50u);
  for (std::uint64_t r = 0; r < 50; ++r) EXPECT_EQ(col[r], binned.bin(0, r));
}

TEST(Binner, TotalBinsSumsFields) {
  Dataset d;
  d.add_numeric_field("x");
  d.add_categorical_field("c", 9);
  d.resize(10);
  for (std::uint64_t r = 0; r < 10; ++r) {
    d.set_numeric(0, r, static_cast<float>(r));
    d.set_categorical(1, r, static_cast<std::int32_t>(r % 9));
  }
  const auto binned = Binner().bin(d);
  EXPECT_EQ(binned.total_bins(),
            binned.field_bins(0).num_bins + binned.field_bins(1).num_bins);
  EXPECT_EQ(binned.max_bins_per_field(),
            std::max(binned.field_bins(0).num_bins,
                     binned.field_bins(1).num_bins));
}

TEST(Binner, LayoutRecordBytesCoverFields) {
  Dataset d;
  d.add_numeric_field("x");
  d.add_categorical_field("small", 10);
  d.add_categorical_field("wide", 600);  // spans 3 SRAM slots of 256
  d.resize(4);
  const auto binned = Binner().bin(d);
  // 1 (numeric, 256 bins max) + 1 (small) + 3 (wide 601 bins) = 5 bytes.
  EXPECT_EQ(binned.layout().record_bytes, 5u);
  EXPECT_EQ(binned.layout().field_slot_bytes[2], 3u);
}

TEST(Binner, DeterministicAcrossCalls) {
  const auto a = Binner().bin(make_numeric_dataset(500));
  const auto b = Binner().bin(make_numeric_dataset(500));
  for (std::uint64_t r = 0; r < 500; ++r) EXPECT_EQ(a.bin(0, r), b.bin(0, r));
}

// Regression: the move constructor and move assignment used to leave the
// moved-from dataset with row_major_built_ == true and a stale
// num_records_, so refilling it (the chunk-arena recycling pattern in
// stream::ChunkWindow) would hand out a row-major view of the *previous*
// occupant's bins. Moved-from must be empty-but-valid.
TEST(BinnedDataset, MovedFromIsEmptyAndRefillsCorrectly) {
  auto a = Binner().bin(make_numeric_dataset(100));
  a.ensure_row_major();  // set the built flag so the move must clear it
  ASSERT_NE(a.row_major_bins(), nullptr);

  BinnedDataset b(std::move(a));
  EXPECT_EQ(a.num_records(), 0u) << "move ctor must empty the source";
  EXPECT_EQ(b.num_records(), 100u);

  BinnedDataset c;
  c = std::move(b);
  EXPECT_EQ(b.num_records(), 0u) << "move assign must empty the source";
  EXPECT_EQ(c.num_records(), 100u);

  // Refill the moved-from object (arena recycling) with *different* data:
  // the row-major view must be rebuilt from the new contents, not served
  // stale from before the move.
  Dataset d;
  d.add_numeric_field("x");
  d.resize(40);
  for (std::uint64_t r = 0; r < 40; ++r) {
    d.set_numeric(0, r, static_cast<float>(40 - r));
  }
  a = Binner().bin(d);
  b = Binner().bin(d);
  for (const BinnedDataset* refilled : {&a, &b}) {
    ASSERT_EQ(refilled->num_records(), 40u);
    refilled->ensure_row_major();
    const BinIndex* rm = refilled->row_major_bins();
    for (std::uint64_t r = 0; r < 40; ++r) {
      EXPECT_EQ(rm[r], refilled->bin(0, r)) << "row " << r;
    }
  }
}

// Property: every record falls in exactly one bin per field, never out of
// range -- the invariant behind the paper's "exactly one access per SRAM".
class BinRangeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BinRangeSweep, AllBinsWithinFieldRange) {
  BinningConfig cfg;
  cfg.max_numeric_bins = GetParam();
  const auto binned = Binner(cfg).bin(make_numeric_dataset(2000));
  const auto& fb = binned.field_bins(0);
  for (std::uint64_t r = 0; r < 2000; ++r) {
    EXPECT_LT(binned.bin(0, r), fb.num_bins);
  }
}

INSTANTIATE_TEST_SUITE_P(MaxBins, BinRangeSweep,
                         ::testing::Values(2u, 8u, 64u, 255u));

// Differential check of the one numeric bin rule (a branchless search)
// against the plain std::lower_bound + clamp it replaces: equal on every
// probe, for every bound-set size the binner can produce at the edges.

/// The reference rule: missing for NaN or no value bins, else the first
/// bin whose upper bound is >= v, clamped to the last bin.
BinIndex reference_bin(float v, const std::vector<float>& bounds) {
  if (std::isnan(v) || bounds.empty()) return 0;
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds.begin());
  return static_cast<BinIndex>(std::min(idx, bounds.size() - 1) + 1);
}

/// `size` sorted, unique finite bounds. Half the draws are the float right
/// above the previous draw, so adjacent-float bounds (whose nextafter
/// neighbours are other bounds) occur in every large set.
std::vector<float> random_bounds(std::size_t size, util::Rng* rng) {
  std::set<float> picked;
  float last = 0.0f;
  while (picked.size() < size) {
    if (!picked.empty() && rng->bernoulli(0.5)) {
      last = std::nextafter(last, std::numeric_limits<float>::infinity());
    } else {
      last = static_cast<float>(rng->normal() *
                                std::pow(10.0, rng->uniform(-4.0, 4.0)));
    }
    picked.insert(last);
  }
  return {picked.begin(), picked.end()};
}

std::vector<float> probes_for(const std::vector<float>& bounds) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> probes = {
      0.0f,
      -0.0f,
      kInf,
      -kInf,
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::lowest(),
      std::numeric_limits<float>::max(),
  };
  for (const float b : bounds) {
    probes.push_back(b);
    probes.push_back(std::nextafter(b, -kInf));
    probes.push_back(std::nextafter(b, kInf));
  }
  if (!bounds.empty()) {
    probes.push_back(bounds.front() - 1.0f - std::abs(bounds.front()));
    probes.push_back(bounds.back() + 1.0f + std::abs(bounds.back()));
  }
  return probes;
}

void expect_matches_reference(const std::vector<float>& bounds,
                              const std::string& context) {
  FieldBins fb;
  fb.kind = FieldKind::kNumeric;
  fb.num_bins = static_cast<std::uint32_t>(bounds.size()) + 1;
  fb.upper_bounds = bounds;
  for (const float v : probes_for(bounds)) {
    EXPECT_EQ(numeric_value_bin(v, fb), reference_bin(v, bounds))
        << context << ", " << bounds.size() << " bounds, v = " << v;
  }
}

TEST(NumericValueBin, MatchesLowerBoundOnRandomBoundSets) {
  util::Rng rng(0xB1B5EA7CULL);
  for (const std::size_t size : {0u, 1u, 2u, 3u, 254u, 255u}) {
    for (int trial = 0; trial < 8; ++trial) {
      expect_matches_reference(random_bounds(size, &rng),
                               "trial " + std::to_string(trial));
    }
  }
}

TEST(NumericValueBin, MatchesLowerBoundOnEveryPrefixOfOneSet) {
  // Every size 1..255 once, so each search depth and each odd/even split
  // of the halving loop is covered.
  util::Rng rng(0x5EA4C4ULL);
  const std::vector<float> full = random_bounds(255, &rng);
  for (std::size_t size = 1; size <= full.size(); ++size) {
    expect_matches_reference({full.begin(), full.begin() + size}, "prefix");
  }
}

TEST(NumericValueBin, InfiniteAndSignedZeroBoundsMatchReference) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  expect_matches_reference({-kInf, -1.0f, 0.0f, 1.0f, kInf}, "infinite");
  expect_matches_reference({-0.0f}, "negative zero bound");
  expect_matches_reference({-kInf}, "only -inf");
  expect_matches_reference({kInf}, "only +inf");
}

}  // namespace
}  // namespace booster::gbdt
