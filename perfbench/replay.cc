#include "replay.h"

#include <algorithm>
#include <deque>
#include <span>
#include <vector>

#include "gbdt/flat_ensemble.h"
#include "gbdt/hotpath.h"
#include "spans.h"
#include "util/check.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace booster::gbdt;
namespace simd = booster::util::simd;

namespace {

// Trainer's grain for the per-record loops; chunking never changes bits.
constexpr std::uint64_t kRecordGrain = 2048;

struct Node {
  std::int32_t tree_node = 0;
  std::int32_t depth = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint8_t buf = 0;
  Histogram hist;
  BinStats totals;

  std::uint64_t rows() const { return end - begin; }
};

}  // namespace

Model replay_train(const TrainerConfig& cfg, const BinnedDataset& data) {
  BOOSTER_CHECK_MSG(cfg.init_model == nullptr && cfg.num_shards <= 1 &&
                        cfg.growth == GrowthOrder::kVertexByVertex &&
                        cfg.early_stop_rel_improvement == 0.0,
                    "replay covers the cold single-shard vertex-by-vertex "
                    "path only");
  ScopedSpan replay_span("gbdt.replay");
  const std::uint64_t n = data.num_records();
  const auto loss = make_loss(cfg.loss);

  booster::util::ThreadPool pool(cfg.num_threads);
  HistogramPool hist_pool(data);
  std::vector<std::uint32_t> row_bufs[2] = {std::vector<std::uint32_t>(n),
                                            std::vector<std::uint32_t>(n)};
  std::vector<std::uint64_t> chunk_counts(pool.num_threads() + 1, 0);
  std::vector<double> chunk_loss(pool.num_threads(), 0.0);
  std::vector<Histogram> partials;

  double label_mean = 0.0;
  for (const float y : data.labels()) label_mean += y;
  label_mean /= static_cast<double>(n);
  const double base_score = loss->base_score(label_mean);

  std::vector<float> preds(n, static_cast<float>(base_score));
  std::vector<GradientPair> gradients(n);
  pool.for_chunks(0, n, kRecordGrain,
                  [&](std::uint64_t b, std::uint64_t e, unsigned) {
                    for (std::uint64_t r = b; r < e; ++r) {
                      gradients[r] =
                          loss->gradients(preds[r], data.labels()[r]);
                    }
                  });

  const SplitFinder finder(cfg.split);
  Model model(base_score, make_loss(cfg.loss));
  const std::vector<const BinIndex*> col_ptrs = column_pointers(data);
  FlatTree flat;

  for (std::uint32_t t = 0; t < cfg.num_trees; ++t) {
    Tree tree;
    std::deque<Node> frontier;
    pool.for_chunks(0, n, kRecordGrain,
                    [&](std::uint64_t b, std::uint64_t e, unsigned) {
                      for (std::uint64_t r = b; r < e; ++r) {
                        row_bufs[0][r] = static_cast<std::uint32_t>(r);
                      }
                    });
    {
      Node root;
      root.tree_node = tree.root();
      root.end = n;
      root.hist = hist_pool.acquire();
      {
        ScopedSpan s("gbdt.step1_hist");
        build_histogram_parallel(root.hist, data, row_bufs[0], gradients, pool,
                                 hist_pool, partials);
      }
      root.totals = root.hist.totals();
      frontier.push_back(std::move(root));
    }

    while (!frontier.empty()) {
      Node node = std::move(frontier.front());
      frontier.pop_front();
      const auto make_leaf = [&] {
        tree.set_leaf_weight(node.tree_node,
                             cfg.learning_rate *
                                 leaf_weight(node.totals, cfg.split.lambda));
        hist_pool.release(std::move(node.hist));
      };
      if (node.depth >= static_cast<std::int32_t>(cfg.max_depth) ||
          node.rows() < cfg.min_node_records) {
        make_leaf();
        continue;
      }

      std::optional<SplitInfo> split;
      {
        ScopedSpan s("gbdt.step2_split");
        split = finder.find_best(node.hist, data, &pool);
      }
      if (!split) {
        make_leaf();
        continue;
      }

      const std::uint64_t n_left = split->left.count_u64();
      const std::uint8_t child_buf = node.buf ^ 1;
      {
        ScopedSpan s("gbdt.step3_partition");
        partition_to(row_bufs[node.buf], row_bufs[child_buf], node.begin,
                     node.end, n_left, data, *split, pool, chunk_counts);
      }
      const std::uint64_t n_right = node.rows() - n_left;
      const auto [left_id, right_id] = tree.split_leaf(node.tree_node, *split);
      const std::int32_t child_depth = node.depth + 1;

      if (child_depth >= static_cast<std::int32_t>(cfg.max_depth)) {
        tree.set_leaf_weight(left_id, cfg.learning_rate * leaf_weight(
                                          split->left, cfg.split.lambda));
        tree.set_leaf_weight(right_id, cfg.learning_rate * leaf_weight(
                                           split->right, cfg.split.lambda));
        hist_pool.release(std::move(node.hist));
        continue;
      }

      // Bin the smaller child; the larger one is parent minus smaller.
      const bool left_smaller = n_left <= n_right;
      const std::uint64_t mid = node.begin + n_left;
      Node small;
      Node large;
      small.tree_node = left_smaller ? left_id : right_id;
      large.tree_node = left_smaller ? right_id : left_id;
      small.depth = large.depth = child_depth;
      small.buf = large.buf = child_buf;
      small.begin = left_smaller ? node.begin : mid;
      small.end = left_smaller ? mid : node.end;
      large.begin = left_smaller ? mid : node.begin;
      large.end = left_smaller ? node.end : mid;

      small.hist = hist_pool.acquire();
      {
        ScopedSpan s("gbdt.step1_hist");
        build_histogram_parallel(
            small.hist, data,
            std::span<const std::uint32_t>(
                row_bufs[child_buf].data() + small.begin, small.rows()),
            gradients, pool, hist_pool, partials);
        // The sibling subtraction is step-1 work in the paper's split.
        large.hist = std::move(node.hist);
        large.hist.subtract(small.hist);
      }
      small.totals = small.hist.totals();
      large.totals = large.hist.totals();
      frontier.push_back(std::move(small));
      frontier.push_back(std::move(large));
    }

    {
      ScopedSpan s("gbdt.step5_traversal");
      flat.assign(tree);
      const simd::Kernels& ker = simd::kernels();
      pool.for_chunks(
          0, n, kRecordGrain, [&](std::uint64_t b, std::uint64_t e, unsigned) {
            double wts[simd::kMaxPredictTile];
            std::uint32_t hops[simd::kMaxPredictTile];
            const simd::FlatTreeView view = flat.view();
            for (std::uint64_t r0 = b; r0 < e; r0 += ker.predict_tile) {
              const std::size_t m = static_cast<std::size_t>(
                  std::min<std::uint64_t>(ker.predict_tile, e - r0));
              ker.traverse_block(view, col_ptrs.data(), r0, m, wts, hops);
              for (std::size_t i = 0; i < m; ++i) {
                const std::uint64_t r = r0 + i;
                preds[r] += static_cast<float>(wts[i]);
                gradients[r] = loss->gradients(preds[r], data.labels()[r]);
              }
            }
          });
    }
    // The per-tree training loss the trainer computes for its TreeStats
    // and early stopping: no effect on the model, but part of its time
    // (it lands in the replay's self time, gbdt.other.s).
    pool.for_chunks(0, n, kRecordGrain,
                    [&](std::uint64_t b, std::uint64_t e, unsigned c) {
                      double sum = 0.0;
                      for (std::uint64_t r = b; r < e; ++r) {
                        sum += quantize_stat(
                            loss->value(preds[r], data.labels()[r]));
                      }
                      chunk_loss[c] += sum;
                    });
    model.add_tree(std::move(tree));
  }
  return model;
}

}  // namespace perfbench
