#include "gbdt/distributed.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "gbdt/shard_ops.h"
#include "ipc/codec.h"
#include "util/check.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace booster::gbdt {

namespace {

using ipc::Frame;
using ipc::HistogramCodec;
using ipc::MessageType;
using trace::StepEvent;
using trace::StepKind;
using trace::StepTrace;

void emit(StepTrace* trace, StepEvent e) {
  if (trace != nullptr) trace->add(e);
}

/// Clamp shards exactly like ShardedTrainer: empty shards would be
/// harmless but pointless. Every rank applies the same rule, so the
/// global partition agrees without communication.
std::uint32_t clamp_shards(std::uint32_t requested, std::uint64_t n) {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(std::max(1u, requested), n));
}

/// The serial base-score pass shared by every rank (and by Trainer):
/// identical code => identical bits, no communication needed.
double compute_base_score(const BinnedDataset& data, const Loss& loss) {
  double label_mean = 0.0;
  for (float y : data.labels()) label_mean += y;
  label_mean /= static_cast<double>(data.num_records());
  return loss.base_score(label_mean);
}

/// Warm start takes the base score from the init model instead; every rank
/// resolves it identically from its own copy of the config.
double initial_base_score(const BinnedDataset& data, const Loss& loss,
                          const TrainerConfig& tcfg) {
  if (tcfg.init_model == nullptr) return compute_base_score(data, loss);
  BOOSTER_CHECK_MSG(tcfg.init_model->loss().name() == tcfg.loss,
                    "warm start: init model's loss differs from the "
                    "config's loss");
  return tcfg.init_model->base_score();
}

/// Pre-seeds a rank's result with copies of the warm-start trees plus
/// placeholder per-tree stats, keeping tree_stats index-aligned with
/// model.trees() (the catch-up payload pairs trees[i] with
/// tree_stats[i].train_loss). Every reset/rebuild path replays
/// result.model.trees() through the shard groups afterwards, so the init
/// trees flow into preds/gradients exactly like finished trees do.
void seed_warm_start(TrainResult* result, const TrainerConfig& tcfg) {
  if (tcfg.init_model == nullptr) return;
  for (const Tree& t : tcfg.init_model->trees()) {
    TreeStats stats;
    stats.leaves = t.num_leaves();
    stats.depth = t.max_depth();
    result->tree_stats.push_back(stats);
    result->model.add_tree(t);
  }
}

/// One frontier node of the rank-0 driver: global bookkeeping plus the
/// merged histogram (the groups hold the arena spans).
struct DriverNode {
  std::int32_t tree_node = 0;
  std::int32_t depth = 0;
  std::uint64_t rows = 0;
  Histogram hist;
  BinStats totals;
};

/// A worker rank as seen from rank 0.
struct Remote {
  std::uint32_t rank = 0;
  std::uint32_t shard_begin = 0;
  std::uint32_t shard_end = 0;
  bool alive = true;

  std::uint32_t shards() const { return shard_end - shard_begin; }
};

/// Leaf-depth bookkeeping workers derive from the finished tree itself
/// (rank 0 accumulates the same sums in its make_leaf paths; both are
/// integer sums over the same leaves, so avg_leaf_depth matches bitwise).
void accumulate_leaf_depths(const Tree& tree, double* leaf_depth_sum,
                            std::uint64_t* leaf_count) {
  for (std::uint32_t id = 0; id < tree.num_nodes(); ++id) {
    const TreeNode& n = tree.node(static_cast<std::int32_t>(id));
    if (n.is_leaf) {
      *leaf_depth_sum += n.depth;
      ++*leaf_count;
    }
  }
}

/// The one way any rank (re)builds shard state: a fresh group over shards
/// [begin, end) whose predictions and gradients have caught up through
/// every tree of `model`. Pure recomputation of deterministic state, so
/// regrouping at a tree boundary or adopting a dead worker's shards
/// mid-tree never changes a bit.
std::unique_ptr<ShardGroup> caught_up_group(
    const BinnedDataset& data, const TrainerConfig& tcfg,
    std::uint32_t num_shards, std::uint32_t begin, std::uint32_t end,
    util::ThreadPool* pool, const Loss& loss, double base_score,
    const Model& model) {
  auto group = std::make_unique<ShardGroup>(data, tcfg, num_shards, begin,
                                            end, pool);
  group->reset(loss, base_score);
  for (const Tree& t : model.trees()) {
    group->finish_tree(t, loss, nullptr, nullptr);
  }
  return group;
}

/// Per-shard diagnostics by global shard index over every group this rank
/// ran the shard in (ordered, so it emits in global shard order).
using ShardLedger = std::map<std::uint32_t, ShardHotPathStats>;

/// Adds a group's run-wide counters (pool acquires and allocations, chunk
/// merges) to `hot`, and each shard's acquires and allocations to its
/// entry in `ledger`. A group replaced at a tree boundary goes through
/// this before it is destroyed, so the totals and the per-shard entries
/// cover every tree of the run.
void add_group_totals(const ShardGroup& group, HotPathStats* hot,
                      ShardLedger* ledger) {
  hot->chunk_merges += group.internal_merges();
  const std::vector<ShardHotPathStats> stats = group.shard_stats();
  for (std::uint32_t i = 0; i < stats.size(); ++i) {
    const ShardHotPathStats& ss = stats[i];
    hot->histogram_allocations += ss.histogram_allocations;
    hot->histogram_acquires += ss.histogram_acquires;
    ShardHotPathStats& entry = (*ledger)[group.shard_begin() + i];
    entry.rows = ss.rows;
    entry.sub_chunks = ss.sub_chunks;
    entry.histogram_allocations += ss.histogram_allocations;
    entry.histogram_acquires += ss.histogram_acquires;
  }
}

/// Adds the (non-null) groups alive at the end of the run -- their totals
/// plus the arena footprint they still hold -- and emits `ledger` as
/// hot->per_shard. A shard this rank gave away reports its counters with
/// arena_bytes 0, so per_shard sums to the shard part of the totals.
void add_final_stats(std::span<const std::unique_ptr<ShardGroup>> live,
                     HotPathStats* hot, ShardLedger* ledger) {
  for (const auto& group : live) {
    if (group == nullptr) continue;
    add_group_totals(*group, hot, ledger);
    const std::vector<ShardHotPathStats> stats = group->shard_stats();
    for (std::uint32_t i = 0; i < stats.size(); ++i) {
      hot->arena_bytes += stats[i].arena_bytes;
      (*ledger)[group->shard_begin() + i].arena_bytes = stats[i].arena_bytes;
    }
  }
  for (const auto& [shard, ss] : *ledger) hot->per_shard.push_back(ss);
}

}  // namespace

DistributedTrainer::DistributedTrainer(DistributedConfig cfg,
                                       ipc::Transport* transport)
    : cfg_(cfg), transport_(transport) {}

std::uint32_t DistributedTrainer::rank() const {
  return transport_ == nullptr ? 0 : transport_->rank();
}

std::uint32_t DistributedTrainer::world_size() const {
  return transport_ == nullptr ? 1 : transport_->world_size();
}

TrainResult DistributedTrainer::train(const BinnedDataset& data,
                                      StepTrace* trace,
                                      trace::WorkloadInfo* info) {
  stats_ = DistributedStats{};
  stats_.world_size = world_size();
  stats_.rank = rank();
  if (rank() == 0) return coordinate(data, trace, info);
  return follow(data, info);
}

TrainResult DistributedTrainer::coordinate(const BinnedDataset& data,
                                           StepTrace* trace,
                                           trace::WorkloadInfo* info) {
  const std::uint64_t n = data.num_records();
  BOOSTER_CHECK_MSG(n > 0, "cannot train on an empty dataset");
  const TrainerConfig& tcfg = cfg_.trainer;
  auto loss = make_loss(tcfg.loss);
  const std::uint32_t num_fields = data.num_fields();
  const std::uint32_t num_shards = clamp_shards(tcfg.num_shards, n);
  const std::uint32_t world = world_size();
  stats_.shards_total = num_shards;

  util::ThreadPool pool(tcfg.num_threads);
  data.ensure_row_major();

  // A single-rank world has no transport and so no channel; every use of
  // the channel below runs over worker ranks, of which it has none.
  std::unique_ptr<ipc::ReliableChannel> channel;
  if (transport_ != nullptr) {
    channel = std::make_unique<ipc::ReliableChannel>(transport_, cfg_.channel);
  }
  ipc::MembershipTracker members(world);

  /// A worker rank's protocol standing. Pending and active are the live
  /// states; a zombie was declared dead mid-tree (its shards adopted) but
  /// may still be connected and following the broadcast stream, so it can
  /// finish cleanly; gone is evicted for good (only a fresh session
  /// nonce re-joins).
  enum class Standing : std::uint8_t {
    kNever = 0,
    kPending,
    kActive,
    kZombie,
    kGone
  };
  std::vector<Standing> standing(world, Standing::kNever);
  // The tree-0 view is every rank the transport already reports connected.
  // Transports without membership events report every rank connected, so
  // their whole world enters here and changes only through adoption.
  for (std::uint32_t r = 1; r < world; ++r) {
    if (transport_->peer_connected(r)) standing[r] = Standing::kPending;
  }

  const double base_score = initial_base_score(data, *loss, tcfg);

  // Rank 0's groups: exactly one covering its current assignment at every
  // tree start; mid-tree adoptions append temporaries that the next
  // boundary's rebuild retires.
  std::vector<std::unique_ptr<ShardGroup>> groups;
  ShardLedger shard_ledger;

  HistogramPool merged_pool(data);
  HistogramPool rx_pool(data);
  std::vector<Histogram> rx_by_shard(num_shards);
  std::vector<std::uint8_t> rx_filled(num_shards, 0);
  std::uint64_t driver_merges = 0;

  const SplitFinder finder(tcfg.split);
  TrainResult result{.model = Model(base_score, make_loss(tcfg.loss))};
  // Warm start: seed the result before the first assign_tree -- the group
  // (re)build below replays result.model.trees(), and the catch-up payload
  // ships the init trees to workers like any finished-tree prefix.
  seed_warm_start(&result, tcfg);

  double leaf_depth_sum = 0.0;
  std::uint64_t leaf_count = 0;
  double prev_loss = std::numeric_limits<double>::infinity();
  std::uint32_t stagnant_trees = 0;

  std::vector<ipc::SplitDecisionMsg> decisions;
  std::uint32_t build_seq = 0;
  std::vector<Remote> remotes;  // this tree's active workers

  const auto owner_group = [&](std::uint32_t shard) -> ShardGroup* {
    for (auto& g : groups) {
      if (shard >= g->shard_begin() && shard < g->shard_end()) return g.get();
    }
    return nullptr;
  };

  /// The finished-model prefix a worker needs to enter the protocol.
  const auto catch_up_payload = [&]() {
    ipc::CatchUpMsg msg;
    const auto& trees = result.model.trees();
    msg.trees.reserve(trees.size());
    for (std::size_t i = 0; i < trees.size(); ++i) {
      ipc::CatchUpMsg::TreeEntry entry;
      entry.nodes.reserve(trees[i].num_nodes());
      for (std::uint32_t id = 0; id < trees[i].num_nodes(); ++id) {
        entry.nodes.push_back(trees[i].node(static_cast<std::int32_t>(id)));
      }
      entry.train_loss = result.tree_stats[i].train_loss;
      msg.trees.push_back(std::move(entry));
    }
    return HistogramCodec::encode_catch_up(msg);
  };

  /// Folds the transport's peer events into the membership view and
  /// admits/evicts at a tree boundary (or, with fire_hook off, at the
  /// final sweep).
  const auto process_membership = [&](std::uint32_t t, bool fire_hook) {
    if (fire_hook && cfg_.on_tree_boundary) cfg_.on_tree_boundary(t);
    if (transport_ == nullptr) return;
    transport_->pump(std::chrono::milliseconds(0));
    for (const ipc::PeerEvent& ev : transport_->take_peer_events()) {
      if (ev.kind == ipc::PeerEventKind::kJoined ||
          ev.kind == ipc::PeerEventKind::kNewSession) {
        // A fresh incarnation of the rank: wipe both sides' protocol
        // memory and queue it for (re-)admission with a catch-up.
        channel->reset_peer(ev.rank);
        if (standing[ev.rank] == Standing::kActive) members.remove(ev.rank);
        standing[ev.rank] = Standing::kPending;
      }
      // kResumed continues the same stream (nothing to do); a
      // kDisconnected peer may still resume within its window, so
      // liveness -- not the event -- decides its fate mid-tree.
    }
    for (std::uint32_t r = 1; r < world; ++r) {
      if (standing[r] == Standing::kZombie && !transport_->peer_connected(r)) {
        transport_->drop_peer(r);
        standing[r] = Standing::kGone;
      }
      if (standing[r] == Standing::kPending && transport_->peer_connected(r)) {
        channel->send(r, MessageType::kCatchUp, catch_up_payload());
        members.admit(r);
        standing[r] = Standing::kActive;
        if (t > 0) ++stats_.joins;
      }
    }
  };

  /// Recomputes the shard assignment from the current view, rebuilds rank
  /// 0's own group when its range moved, and tells every follower its
  /// range for tree `t`.
  const auto assign_tree = [&](std::uint32_t t) {
    const auto& parts = members.participants();
    const auto [b0, e0] = members.assignment(num_shards, 0);
    if (groups.size() != 1 || groups[0]->shard_begin() != b0 ||
        groups[0]->shard_end() != e0) {
      for (const auto& g : groups) {
        add_group_totals(*g, &result.hot_path, &shard_ledger);
      }
      groups.clear();
      groups.push_back(caught_up_group(data, tcfg, num_shards, b0, e0, &pool,
                                       *loss, base_score, result.model));
    }
    if (t == 0) stats_.shards_local = e0 - b0;
    remotes.clear();
    for (std::uint32_t i = 1; i < parts.size(); ++i) {
      const auto [sb, se] = members.assignment(num_shards, i);
      remotes.push_back(Remote{parts[i], sb, se, true});
    }
    ipc::ShardAssignMsg msg;
    msg.tree = t;
    msg.view_epoch = members.view_epoch();
    msg.num_shards = num_shards;
    for (const Remote& remote : remotes) {
      msg.shard_begin = remote.shard_begin;
      msg.shard_end = remote.shard_end;
      channel->send(remote.rank, MessageType::kShardAssign,
                    HistogramCodec::encode_shard_assign(msg));
    }
    // Connected zombies get an empty range: they follow the stream (and
    // exit at the final assignment) without contributing shards.
    msg.shard_begin = msg.shard_end = 0;
    for (std::uint32_t r = 1; r < world; ++r) {
      if (standing[r] == Standing::kZombie && transport_->peer_connected(r)) {
        channel->send(r, MessageType::kShardAssign,
                      HistogramCodec::encode_shard_assign(msg));
      }
    }
  };

  /// Declares `remote` dead and re-executes its shards locally: a caught-up
  /// group, then a worker-loop replay of the current tree's decision log
  /// (leaving the group's frontier -- and its pending build -- exactly
  /// where the live worker's was). The rank leaves the view at the next
  /// boundary.
  const auto adopt = [&](Remote& remote) -> ShardGroup* {
    BOOSTER_CHECK_MSG(cfg_.adopt_dead_workers,
                      "ipc worker declared dead and shard adoption is "
                      "disabled (DistributedConfig.adopt_dead_workers)");
    remote.alive = false;
    ++stats_.dead_workers;
    stats_.shards_adopted += remote.shards();
    members.remove(remote.rank);
    standing[remote.rank] = Standing::kZombie;
    auto g = caught_up_group(data, tcfg, num_shards, remote.shard_begin,
                             remote.shard_end, &pool, *loss, base_score,
                             result.model);
    g->begin_tree(n);
    std::size_t replay = 0;
    while (!g->frontier_empty()) {
      if (g->head_is_bounds_leaf()) {
        g->apply_leaf();
        continue;
      }
      if (replay == decisions.size()) break;
      const ipc::SplitDecisionMsg& d = decisions[replay++];
      if (d.has_split) {
        g->apply_split(d.split);
      } else {
        g->apply_leaf();
      }
    }
    groups.push_back(std::move(g));
    return groups.back().get();
  };

  /// Builds every group's pending node, collects the remote shard
  /// histograms for the same build point, and merges them all -- in fixed
  /// global shard order -- into one pooled histogram. Unresponsive
  /// workers are adopted mid-gather.
  const auto gather_merged = [&](std::uint32_t t) {
    const std::uint32_t build_idx = build_seq++;
    for (auto& g : groups) {
      if (g->num_local() > 0) g->build_pending();
    }
    for (Remote& remote : remotes) {
      if (!remote.alive || remote.shards() == 0) continue;
      for (std::uint32_t s = remote.shard_begin; s < remote.shard_end; ++s) {
        Frame frame;
        if (!channel->recv(remote.rank, &frame)) {
          ShardGroup* adopted = adopt(remote);
          adopted->build_pending();
          break;
        }
        BOOSTER_CHECK_MSG(frame.type == MessageType::kShardHistogram,
                          "unexpected message while gathering shard "
                          "histograms (protocol desync)");
        ipc::ShardHistogramMsg msg;
        Histogram rx = rx_pool.acquire();
        BOOSTER_CHECK_MSG(
            HistogramCodec::decode_shard_histogram_into(frame.payload, &msg,
                                                        &rx),
            "shard-histogram payload failed to decode (protocol desync)");
        BOOSTER_CHECK_MSG(msg.tree == t && msg.build_seq == build_idx &&
                              msg.shard == s,
                          "shard histogram for the wrong build point "
                          "(protocol desync)");
        rx_by_shard[s] = std::move(rx);
        rx_filled[s] = 1;
      }
    }
    Histogram merged = merged_pool.acquire();
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      if (const ShardGroup* g = owner_group(s)) {
        merged.add(g->built_histogram(s - g->shard_begin()));
      } else {
        BOOSTER_CHECK_MSG(rx_filled[s] != 0,
                          "no histogram source for a shard (protocol bug)");
        merged.add(rx_by_shard[s]);
      }
      ++driver_merges;
    }
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      if (rx_filled[s] != 0) {
        rx_pool.release(std::move(rx_by_shard[s]));
        rx_filled[s] = 0;
      }
    }
    for (auto& g : groups) {
      if (g->num_local() > 0) g->release_built();
    }
    return merged;
  };

  // Decisions go to this tree's shard-bearing remotes, dead-declared ones
  // included (the sends are best-effort and cheap): a worker whose
  // outbound path failed -- so rank 0 adopted its shards -- can still
  // follow the inbound stream to completion and exit cleanly instead of
  // deadlocking, and a genuinely dead process simply never reads them.
  const auto broadcast_decision = [&](const ipc::SplitDecisionMsg& msg) {
    decisions.push_back(msg);
    if (remotes.empty()) return;
    const auto payload = HistogramCodec::encode_split_decision(msg);
    for (const Remote& remote : remotes) {
      if (remote.shards() > 0) {
        channel->send(remote.rank, MessageType::kSplitDecision, payload);
      }
    }
  };

  // Tree-complete and verdict frames go to every follower: this tree's
  // remotes (dead-declared included, for the same reason) plus connected
  // zombies from earlier trees.
  const auto broadcast_all = [&](MessageType type,
                                 const std::vector<std::uint8_t>& payload) {
    for (const Remote& remote : remotes) {
      channel->send(remote.rank, type, payload);
    }
    for (std::uint32_t r = 1; r < world; ++r) {
      if (standing[r] != Standing::kZombie ||
          !transport_->peer_connected(r)) {
        continue;
      }
      bool in_remotes = false;
      for (const Remote& remote : remotes) {
        if (remote.rank == r) in_remotes = true;
      }
      if (!in_remotes) channel->send(r, type, payload);
    }
  };

  std::vector<std::uint32_t> prev_parts;
  for (std::uint32_t t = 0; t < tcfg.num_trees; ++t) {
    process_membership(t, /*fire_hook=*/true);
    if (t > 0 && members.participants() != prev_parts) ++stats_.repartitions;
    prev_parts = members.participants();
    assign_tree(t);

    Tree tree;
    std::deque<DriverNode> frontier;
    std::vector<std::uint64_t> level_hist_records;
    std::vector<std::uint32_t> level_hist_nodes;
    decisions.clear();
    build_seq = 0;
    std::uint32_t decision_seq = 0;

    for (auto& g : groups) g->begin_tree(n);

    {
      DriverNode root;
      root.tree_node = tree.root();
      root.depth = 0;
      root.rows = n;
      root.hist = gather_merged(t);
      root.totals = root.hist.totals();
      emit(trace, StepEvent{.kind = StepKind::kHistogram,
                            .tree = static_cast<std::int32_t>(t),
                            .depth = 0,
                            .records = n,
                            .fields_touched = num_fields,
                            .record_fields = num_fields});
      frontier.push_back(std::move(root));
    }

    while (!frontier.empty()) {
      DriverNode node = std::move(frontier.front());
      frontier.pop_front();

      auto make_leaf = [&](const BinStats& totals) {
        tree.set_leaf_weight(node.tree_node,
                             tcfg.learning_rate *
                                 leaf_weight(totals, tcfg.split.lambda));
        leaf_depth_sum += node.depth;
        ++leaf_count;
        merged_pool.release(std::move(node.hist));
      };

      if (node.depth >= static_cast<std::int32_t>(tcfg.max_depth) ||
          node.rows < tcfg.min_node_records) {
        // Every rank reaches this decision from (depth, rows) alone; no
        // broadcast (the groups run the same rule in their own loops).
        for (auto& g : groups) {
          if (g->num_local() > 0) g->apply_leaf();
        }
        make_leaf(node.totals);
        continue;
      }

      std::uint64_t bins_scanned = 0;
      const auto split =
          finder.find_best(node.hist, data, &pool, &bins_scanned);
      emit(trace, StepEvent{.kind = StepKind::kSplitSelect,
                            .tree = static_cast<std::int32_t>(t),
                            .depth = node.depth,
                            .bins_scanned = bins_scanned});

      ipc::SplitDecisionMsg decision;
      decision.tree = t;
      decision.decision_seq = decision_seq++;
      decision.has_split = split.has_value();
      if (split) decision.split = *split;
      broadcast_decision(decision);

      if (!split) {
        for (auto& g : groups) {
          if (g->num_local() > 0) g->apply_leaf();
        }
        make_leaf(node.totals);
        continue;
      }

      const std::uint64_t n_left = split->left.count_u64();
      BOOSTER_CHECK_MSG(n_left > 0 && n_left < node.rows,
                        "split produced an empty child");
      const bool children_may_split =
          node.depth + 1 < static_cast<std::int32_t>(tcfg.max_depth);
      for (auto& g : groups) {
        if (g->num_local() == 0) continue;
        const bool pushed = g->apply_split(*split);
        BOOSTER_CHECK(pushed == children_may_split);
      }
      emit(trace, StepEvent{.kind = StepKind::kPartition,
                            .tree = static_cast<std::int32_t>(t),
                            .depth = node.depth,
                            .records = node.rows,
                            .fields_touched = 1,
                            .record_fields = num_fields});
      const std::uint64_t n_right = node.rows - n_left;

      const auto [left_id, right_id] = tree.split_leaf(node.tree_node, *split);
      const std::int32_t child_depth = node.depth + 1;

      if (!children_may_split) {
        tree.set_leaf_weight(left_id, tcfg.learning_rate *
                                          leaf_weight(split->left,
                                                      tcfg.split.lambda));
        tree.set_leaf_weight(right_id, tcfg.learning_rate *
                                           leaf_weight(split->right,
                                                       tcfg.split.lambda));
        leaf_depth_sum += 2.0 * child_depth;
        leaf_count += 2;
        merged_pool.release(std::move(node.hist));
        continue;
      }

      const bool left_smaller = n_left <= n_right;
      DriverNode small;
      DriverNode large;
      small.tree_node = left_smaller ? left_id : right_id;
      large.tree_node = left_smaller ? right_id : left_id;
      small.depth = large.depth = child_depth;
      small.rows = left_smaller ? n_left : n_right;
      large.rows = left_smaller ? n_right : n_left;

      small.hist = gather_merged(t);
      small.totals = small.hist.totals();
      if (tcfg.growth == GrowthOrder::kVertexByVertex) {
        emit(trace, StepEvent{.kind = StepKind::kHistogram,
                              .tree = static_cast<std::int32_t>(t),
                              .depth = child_depth,
                              .records = small.rows,
                              .fields_touched = num_fields,
                              .record_fields = num_fields,
                              .used_sibling_subtraction = true});
      } else {
        if (level_hist_records.size() <=
            static_cast<std::size_t>(child_depth)) {
          level_hist_records.resize(child_depth + 1, 0);
          level_hist_nodes.resize(child_depth + 1, 0);
        }
        level_hist_records[child_depth] += small.rows;
        ++level_hist_nodes[child_depth];
      }

      large.hist = std::move(node.hist);
      large.hist.subtract(small.hist);
      large.totals = large.hist.totals();

      frontier.push_back(std::move(small));
      frontier.push_back(std::move(large));
    }

    if (tcfg.growth == GrowthOrder::kLevelByLevel) {
      for (std::size_t depth = 0; depth < level_hist_records.size(); ++depth) {
        if (level_hist_records[depth] == 0) continue;
        emit(trace, StepEvent{.kind = StepKind::kHistogram,
                              .tree = static_cast<std::int32_t>(t),
                              .depth = static_cast<std::int32_t>(depth),
                              .records = level_hist_records[depth],
                              .fields_touched = num_fields,
                              .record_fields = num_fields,
                              .histograms = level_hist_nodes[depth],
                              .used_sibling_subtraction = true});
      }
    }

    // Broadcast the finished tree, then collect step-5 summaries and
    // reduce hop/loss sums in global shard order (exact: integer hops,
    // quantized loss terms).
    {
      ipc::TreeCompleteMsg msg;
      msg.tree = t;
      msg.nodes.reserve(tree.num_nodes());
      for (std::uint32_t id = 0; id < tree.num_nodes(); ++id) {
        msg.nodes.push_back(tree.node(static_cast<std::int32_t>(id)));
      }
      broadcast_all(MessageType::kTreeComplete,
                    HistogramCodec::encode_tree_complete(msg));
    }

    // (shard_begin, hops, loss) partials from local groups and live
    // workers; adopted groups fill in for the dead.
    std::vector<std::tuple<std::uint32_t, double, double>> partials;
    for (auto& g : groups) {
      if (g->num_local() == 0) continue;
      double hops = 0.0;
      double qloss = 0.0;
      g->finish_tree(tree, *loss, &hops, &qloss);
      partials.emplace_back(g->shard_begin(), hops, qloss);
    }
    for (Remote& remote : remotes) {
      if (!remote.alive || remote.shards() == 0) continue;
      Frame frame;
      ipc::ShardSummaryMsg msg;
      if (!channel->recv(remote.rank, &frame)) {
        ShardGroup* adopted = adopt(remote);
        double hops = 0.0;
        double qloss = 0.0;
        adopted->finish_tree(tree, *loss, &hops, &qloss);
        partials.emplace_back(adopted->shard_begin(), hops, qloss);
        continue;
      }
      BOOSTER_CHECK_MSG(frame.type == MessageType::kShardSummary,
                        "unexpected message while gathering summaries "
                        "(protocol desync)");
      BOOSTER_CHECK_MSG(
          HistogramCodec::decode_shard_summary(frame.payload, &msg) &&
              msg.tree == t && msg.shard_begin == remote.shard_begin &&
              msg.shard_end == remote.shard_end,
          "shard summary for the wrong tree or range (protocol desync)");
      partials.emplace_back(msg.shard_begin, msg.hops, msg.quantized_loss);
    }
    std::sort(partials.begin(), partials.end());
    double hops = 0.0;
    double total_loss = 0.0;
    for (const auto& [sb, h, l] : partials) {
      hops += h;
      total_loss += l;
    }
    emit(trace, StepEvent{.kind = StepKind::kTraversal,
                          .tree = static_cast<std::int32_t>(t),
                          .depth = static_cast<std::int32_t>(tree.max_depth()),
                          .records = n,
                          .fields_touched = static_cast<std::uint32_t>(
                              tree.relevant_fields().size()),
                          .record_fields = num_fields,
                          .avg_path_length = hops / static_cast<double>(n)});

    TreeStats tstats;
    tstats.leaves = tree.num_leaves();
    tstats.depth = tree.max_depth();
    // Same exactness guard as Trainer: non-negative terms, so the total
    // bounds every partial.
    BOOSTER_CHECK_MSG(total_loss <= kStatSumCapacity,
                      "training-loss sum exceeds the quantized-exact "
                      "capacity (2^29); normalize labels or enlarge "
                      "kStatQuantum");
    tstats.train_loss = total_loss / static_cast<double>(n);
    result.tree_stats.push_back(tstats);
    result.model.add_tree(std::move(tree));

    // Step 6: identical early-stopping rule to Trainer.
    bool stop_now = t + 1 == tcfg.num_trees;
    bool early = false;
    if (tcfg.early_stop_rel_improvement > 0.0) {
      const double improvement =
          prev_loss <= 0.0 ? 0.0 : (prev_loss - tstats.train_loss) / prev_loss;
      if (std::isfinite(prev_loss) &&
          improvement < tcfg.early_stop_rel_improvement) {
        if (++stagnant_trees >= tcfg.early_stop_patience) {
          result.early_stopped = true;
          early = true;
          stop_now = true;
        }
      } else {
        stagnant_trees = 0;
      }
      prev_loss = tstats.train_loss;
    }

    {
      ipc::TreeVerdictMsg verdict;
      verdict.tree = t;
      verdict.train_loss = tstats.train_loss;
      verdict.stop_training = stop_now;
      verdict.early_stopped = early;
      broadcast_all(MessageType::kTreeVerdict,
                    HistogramCodec::encode_tree_verdict(verdict));
    }
    if (early) break;
  }

  // Final sweep: admit joiners that connected during the last tree (they
  // still deserve the full model), then hand every follower the final
  // assignment -- the exit signal -- and run the goodbye barrier over the
  // active ones. The barrier matters because the final assignment is the
  // one frame with no successor: a worker that lost it (or any earlier
  // tail frame) can only heal while rank 0 is still listening. Workers
  // that never answer are shrugged off; training is already complete.
  const auto trees_done =
      static_cast<std::uint32_t>(result.model.trees().size());
  process_membership(trees_done, /*fire_hook=*/false);
  {
    ipc::ShardAssignMsg fin;
    fin.tree = trees_done;
    fin.view_epoch = members.view_epoch();
    fin.num_shards = num_shards;
    fin.final_assign = true;
    fin.early_stopped = result.early_stopped;
    const auto payload = HistogramCodec::encode_shard_assign(fin);
    for (std::uint32_t r = 1; r < world; ++r) {
      const bool follower =
          standing[r] == Standing::kActive ||
          (standing[r] == Standing::kZombie && transport_->peer_connected(r));
      if (follower) channel->send(r, MessageType::kShardAssign, payload);
    }
  }
  for (std::uint32_t r = 1; r < world; ++r) {
    if (standing[r] != Standing::kActive) continue;
    Frame frame;
    if (!channel->recv(r, &frame, cfg_.channel.shutdown_attempts)) continue;
    BOOSTER_CHECK_MSG(frame.type == MessageType::kGoodbye,
                      "unexpected message at shutdown (protocol desync)");
  }

  result.avg_leaf_depth =
      leaf_count == 0 ? 0.0 : leaf_depth_sum / static_cast<double>(leaf_count);
  result.hot_path.threads = pool.num_threads();
  result.hot_path.simd = util::simd::level_name(util::simd::active());
  result.hot_path.shards = num_shards;
  result.hot_path.histogram_merges = driver_merges;
  result.hot_path.histogram_allocations +=
      merged_pool.allocations() + rx_pool.allocations();
  result.hot_path.histogram_acquires +=
      merged_pool.acquires() + rx_pool.acquires();
  // Per-shard stats in global shard order over the shards this rank
  // executed (every shard on a single-rank world).
  add_final_stats(groups, &result.hot_path, &shard_ledger);
  result.hot_path.row_major_matrix_bytes =
      RecordLayout::software_row_major_bytes(n, num_fields, sizeof(BinIndex));

  if (channel != nullptr) stats_.channel = channel->stats();
  if (transport_ != nullptr) stats_.transport = transport_->stats();
  detail::fill_workload_info(data, tcfg, result, info);
  return result;
}

TrainResult DistributedTrainer::follow(const BinnedDataset& data,
                                       trace::WorkloadInfo* info) {
  const std::uint64_t n = data.num_records();
  BOOSTER_CHECK_MSG(n > 0, "cannot train on an empty dataset");
  const TrainerConfig& tcfg = cfg_.trainer;
  auto loss = make_loss(tcfg.loss);
  const std::uint32_t num_shards = clamp_shards(tcfg.num_shards, n);
  stats_.shards_total = num_shards;

  util::ThreadPool pool(tcfg.num_threads);
  ipc::ReliableChannel channel(transport_, cfg_.channel);
  const double base_score = initial_base_score(data, *loss, tcfg);

  // NOT seeded with warm-start trees: a worker receives the full
  // finished-tree prefix (init trees included) in its admission catch-up,
  // so seeding here would double them.
  TrainResult result{.model = Model(base_score, make_loss(tcfg.loss))};
  double leaf_depth_sum = 0.0;
  std::uint64_t leaf_count = 0;
  std::unique_ptr<ShardGroup> group;
  ShardLedger shard_ledger;

  const auto finalize = [&]() -> TrainResult {
    result.avg_leaf_depth =
        leaf_count == 0 ? 0.0
                        : leaf_depth_sum / static_cast<double>(leaf_count);
    result.hot_path.threads = pool.num_threads();
    result.hot_path.simd = util::simd::level_name(util::simd::active());
    result.hot_path.shards = num_shards;
    add_final_stats(std::span(&group, 1), &result.hot_path, &shard_ledger);
    result.hot_path.row_major_matrix_bytes =
        RecordLayout::software_row_major_bytes(n, data.num_fields(),
                                               sizeof(BinIndex));
    stats_.channel = channel.stats();
    stats_.transport = transport_->stats();
    detail::fill_workload_info(data, tcfg, result, info);
    return std::move(result);
  };

  /// Churn-hook dispatch; true means "return now" (the caller's result is
  /// whatever prefix it has).
  const auto churn_says_die = [&](std::uint32_t t, ElasticChurnPoint point) {
    if (!cfg_.churn_hook) return false;
    switch (cfg_.churn_hook(t, point)) {
      case ElasticChurnAction::kContinue:
        return false;
      case ElasticChurnAction::kCrash:
        transport_->shutdown_hard();  // abrupt: rank 0 sees a dead socket
        return true;
      case ElasticChurnAction::kHang:
        return true;  // connection stays half-open: only liveness catches it
    }
    return false;
  };

  // Admission: the coordinator's first message is the catch-up carrying
  // every already-finished tree. Failing to get it means the coordinator
  // was gone before this worker ever joined -- return gracefully.
  Frame frame;
  if (!channel.recv(0, &frame)) {
    stats_.orphaned = 1;
    return finalize();
  }
  BOOSTER_CHECK_MSG(frame.type == MessageType::kCatchUp,
                    "worker expected a catch-up (protocol desync)");
  {
    ipc::CatchUpMsg catch_up;
    BOOSTER_CHECK_MSG(HistogramCodec::decode_catch_up(frame.payload, &catch_up),
                      "catch-up payload failed to decode (protocol desync)");
    // Warm-start trees lead the prefix; as in Trainer, they do not count
    // toward avg_leaf_depth.
    const std::size_t init_trees =
        tcfg.init_model == nullptr ? 0 : tcfg.init_model->num_trees();
    for (std::size_t i = 0; i < catch_up.trees.size(); ++i) {
      Tree tree = Tree::from_nodes(std::move(catch_up.trees[i].nodes));
      if (i >= init_trees) {
        accumulate_leaf_depths(tree, &leaf_depth_sum, &leaf_count);
      }
      TreeStats ts;
      ts.leaves = tree.num_leaves();
      ts.depth = tree.max_depth();
      ts.train_loss = catch_up.trees[i].train_loss;
      result.tree_stats.push_back(ts);
      result.model.add_tree(std::move(tree));
    }
  }

  const auto send_built = [&](std::uint32_t t, std::uint32_t build_idx) {
    group->build_pending();
    for (std::uint32_t ls = 0; ls < group->num_local(); ++ls) {
      channel.send(0, MessageType::kShardHistogram,
                   HistogramCodec::encode_shard_histogram(
                       t, build_idx, group->shard_begin() + ls,
                       group->built_histogram(ls)));
    }
    group->release_built();
  };

  for (;;) {
    if (!channel.recv(0, &frame)) {
      stats_.orphaned = 1;
      break;
    }
    BOOSTER_CHECK_MSG(frame.type == MessageType::kShardAssign,
                      "worker expected an assignment (protocol desync)");
    ipc::ShardAssignMsg assign;
    BOOSTER_CHECK_MSG(
        HistogramCodec::decode_shard_assign(frame.payload, &assign),
        "shard-assign payload failed to decode (protocol desync)");
    if (assign.final_assign) {
      // The exit signal (the verdict's stop flag is advisory here: a
      // worker admitted at the last boundary never saw one).
      result.early_stopped = assign.early_stopped;
      channel.send(0, MessageType::kGoodbye, {});
      break;
    }
    BOOSTER_CHECK_MSG(assign.num_shards == num_shards,
                      "shard-count mismatch across the world");
    const std::uint32_t t = assign.tree;

    if (churn_says_die(t, ElasticChurnPoint::kTreeStart)) return finalize();

    if (group == nullptr || assign.shard_begin != group->shard_begin() ||
        assign.shard_end != group->shard_end()) {
      if (group != nullptr) {
        add_group_totals(*group, &result.hot_path, &shard_ledger);
      }
      group = caught_up_group(data, tcfg, num_shards, assign.shard_begin,
                              assign.shard_end, &pool, *loss, base_score,
                              result.model);
      stats_.shards_local = group->num_local();
    }

    bool lost = false;
    if (group->num_local() > 0) {
      std::uint32_t build_seq = 0;
      std::uint32_t decision_seq = 0;
      group->begin_tree(n);
      send_built(t, build_seq++);
      if (churn_says_die(t, ElasticChurnPoint::kAfterFirstBuild)) {
        return finalize();
      }
      while (!group->frontier_empty()) {
        if (group->head_is_bounds_leaf()) {
          group->apply_leaf();
          continue;
        }
        if (!channel.recv(0, &frame)) {
          stats_.orphaned = 1;
          lost = true;
          break;
        }
        BOOSTER_CHECK_MSG(frame.type == MessageType::kSplitDecision,
                          "unexpected message type (protocol desync)");
        ipc::SplitDecisionMsg msg;
        BOOSTER_CHECK_MSG(
            HistogramCodec::decode_split_decision(frame.payload, &msg) &&
                msg.tree == t && msg.decision_seq == decision_seq,
            "split decision out of step (protocol desync)");
        ++decision_seq;
        if (!msg.has_split) {
          group->apply_leaf();
          continue;
        }
        if (group->apply_split(msg.split)) send_built(t, build_seq++);
      }
    } else if (churn_says_die(t, ElasticChurnPoint::kAfterFirstBuild)) {
      // An empty-range follower still honors its churn schedule.
      return finalize();
    }
    if (lost) break;

    if (!channel.recv(0, &frame)) {
      stats_.orphaned = 1;
      break;
    }
    BOOSTER_CHECK_MSG(frame.type == MessageType::kTreeComplete,
                      "unexpected message type (protocol desync)");
    ipc::TreeCompleteMsg tree_msg;
    BOOSTER_CHECK_MSG(
        HistogramCodec::decode_tree_complete(frame.payload, &tree_msg) &&
            tree_msg.tree == t,
        "finished tree out of step (protocol desync)");
    Tree tree = Tree::from_nodes(std::move(tree_msg.nodes));

    if (group->num_local() > 0) {
      ipc::ShardSummaryMsg summary;
      summary.tree = t;
      summary.shard_begin = group->shard_begin();
      summary.shard_end = group->shard_end();
      group->finish_tree(tree, *loss, &summary.hops, &summary.quantized_loss);
      channel.send(0, MessageType::kShardSummary,
                   HistogramCodec::encode_shard_summary(summary));
    }

    if (!channel.recv(0, &frame)) {
      stats_.orphaned = 1;
      break;
    }
    BOOSTER_CHECK_MSG(frame.type == MessageType::kTreeVerdict,
                      "unexpected message type (protocol desync)");
    ipc::TreeVerdictMsg verdict;
    BOOSTER_CHECK_MSG(
        HistogramCodec::decode_tree_verdict(frame.payload, &verdict) &&
            verdict.tree == t,
        "tree verdict out of step (protocol desync)");

    accumulate_leaf_depths(tree, &leaf_depth_sum, &leaf_count);
    TreeStats ts;
    ts.leaves = tree.num_leaves();
    ts.depth = tree.max_depth();
    ts.train_loss = verdict.train_loss;
    result.tree_stats.push_back(ts);
    result.model.add_tree(std::move(tree));
  }

  return finalize();
}

TrainResult train_in_process(const DistributedConfig& cfg,
                             ipc::InProcessWorld& world,
                             const BinnedDataset& data, StepTrace* trace,
                             trace::WorkloadInfo* info,
                             std::vector<TrainResult>* all_results,
                             std::vector<DistributedStats>* all_stats) {
  const std::uint32_t R = world.world_size();
  // The row-major view must exist before rank threads race to train on
  // the shared dataset.
  data.ensure_row_major();
  std::vector<std::optional<TrainResult>> results(R);
  std::vector<DistributedStats> stats(R);
  std::vector<std::thread> threads;
  threads.reserve(R);
  for (std::uint32_t r = 0; r < R; ++r) {
    threads.emplace_back([&, r] {
      DistributedTrainer trainer(cfg, world.endpoint(r));
      results[r] = trainer.train(data, r == 0 ? trace : nullptr,
                                 r == 0 ? info : nullptr);
      stats[r] = trainer.stats();
    });
  }
  for (auto& th : threads) th.join();
  // A worker returns gracefully when it loses rank 0; in one process that
  // can only mean the world broke, so it fails as loudly as rank 0 would.
  for (std::uint32_t r = 1; r < R; ++r) {
    BOOSTER_CHECK_MSG(stats[r].orphaned == 0,
                      "worker lost its coordinator (rank 0 unreachable)");
  }
  if (all_stats != nullptr) *all_stats = std::move(stats);
  if (all_results != nullptr) {
    // Worker results only (rank-0's is the return value; TrainResult is
    // move-only, so it cannot live in both places).
    all_results->clear();
    for (std::uint32_t r = 1; r < R; ++r) {
      all_results->push_back(std::move(*results[r]));
    }
  }
  return std::move(*results[0]);
}

ElasticRunResult train_elastic_tcp(const ElasticWorldConfig& cfg,
                                   const BinnedDataset& data,
                                   trace::StepTrace* trace,
                                   trace::WorkloadInfo* info) {
  // The rank-address space must cover the initial workers and every rank
  // a churn event names (a join can target a rank that never existed).
  std::uint32_t max_world = cfg.max_world;
  if (max_world == 0) {
    std::uint32_t highest = cfg.initial_workers;
    for (const ipc::ChurnEvent& ev : cfg.churn.events) {
      highest = std::max(highest, ev.rank);
    }
    max_world = highest + 1;
  }
  BOOSTER_CHECK_MSG(max_world >= 2, "an elastic world needs at least one "
                                    "worker rank");
  BOOSTER_CHECK_MSG(cfg.initial_workers >= 1 &&
                        cfg.initial_workers < max_world,
                    "initial_workers out of range for the elastic world");

  data.ensure_row_major();

  auto listener = ipc::TcpTransport::listen("127.0.0.1", 0, max_world,
                                            cfg.tcp);
  BOOSTER_CHECK_MSG(listener != nullptr, "elastic world: tcp listen failed");
  const std::uint16_t port = listener->port();

  ElasticRunResult out;
  std::mutex mu;
  std::vector<std::thread> threads;
  // Kept alive until every thread is joined: a kHang incarnation returns
  // without closing its transport, and destroying it would close the
  // socket -- turning the half-open hang rank 0 must *detect* into an EOF
  // it would merely *observe*.
  std::vector<std::unique_ptr<ipc::TcpTransport>> worker_transports;

  /// One worker incarnation. `start_tree` scopes the churn schedule: a
  /// rejoined rank must not re-fire the kill that ended its predecessor.
  const auto run_worker = [&](std::uint32_t rank, std::uint32_t start_tree) {
    ipc::TcpOptions topts = cfg.tcp;
    topts.session_nonce = 0;  // fresh incarnation, fresh nonce
    auto owned = ipc::TcpTransport::connect("127.0.0.1", port, max_world,
                                            rank, topts);
    if (owned == nullptr) {
      std::lock_guard<std::mutex> lock(mu);
      ++out.orphaned;  // the coordinator was gone before we ever joined
      return;
    }
    ipc::TcpTransport* transport = owned.get();
    {
      std::lock_guard<std::mutex> lock(mu);
      worker_transports.push_back(std::move(owned));
    }
    DistributedConfig dist = cfg.dist;
    dist.on_tree_boundary = nullptr;
    ElasticChurnAction injected = ElasticChurnAction::kContinue;
    dist.churn_hook = [&cfg, &injected, rank, start_tree](
                          std::uint32_t tree, ElasticChurnPoint point) {
      for (const ipc::ChurnEvent& ev : cfg.churn.events) {
        if (ev.rank != rank || ev.tree != tree || ev.tree < start_tree) {
          continue;
        }
        if (ev.kind == ipc::ChurnEvent::Kind::kKill &&
            point == ElasticChurnPoint::kAfterFirstBuild) {
          injected = ElasticChurnAction::kCrash;
          return ElasticChurnAction::kCrash;
        }
        if (ev.kind == ipc::ChurnEvent::Kind::kHang &&
            point == ElasticChurnPoint::kTreeStart) {
          injected = ElasticChurnAction::kHang;
          return ElasticChurnAction::kHang;
        }
      }
      return ElasticChurnAction::kContinue;
    };
    DistributedTrainer trainer(dist, transport);
    TrainResult res = trainer.train(data);
    std::lock_guard<std::mutex> lock(mu);
    if (injected == ElasticChurnAction::kCrash) {
      ++out.crashed;
    } else if (injected == ElasticChurnAction::kHang) {
      ++out.hung;
    } else if (trainer.stats().orphaned != 0) {
      ++out.orphaned;
    } else {
      out.completed.push_back(std::move(res));
      out.completed_stats.push_back(trainer.stats());
    }
  };

  for (std::uint32_t r = 1; r <= cfg.initial_workers; ++r) {
    threads.emplace_back([&run_worker, r] { run_worker(r, 0); });
  }
  BOOSTER_CHECK_MSG(
      listener->wait_for_world(1 + cfg.initial_workers, cfg.assemble_timeout),
      "elastic world failed to assemble within assemble_timeout");

  DistributedConfig d0 = cfg.dist;
  d0.churn_hook = nullptr;
  d0.on_tree_boundary = [&](std::uint32_t tree) {
    std::vector<std::uint32_t> spawned;
    for (const ipc::ChurnEvent& ev : cfg.churn.events) {
      if (ev.kind != ipc::ChurnEvent::Kind::kJoin || ev.tree != tree) {
        continue;
      }
      const std::uint32_t rank = ev.rank;
      {
        std::lock_guard<std::mutex> lock(mu);
        threads.emplace_back(
            [&run_worker, rank, tree] { run_worker(rank, tree); });
      }
      spawned.push_back(rank);
    }
    // Pump the joiners' handshakes through before returning: the
    // schedule says "join at tree T", so make the admission land at this
    // boundary deterministically instead of racing a solo coordinator
    // that never blocks in recv. Bounded: a joiner that cannot connect
    // falls out after assemble_timeout.
    const auto deadline =
        std::chrono::steady_clock::now() + cfg.assemble_timeout;
    for (const std::uint32_t rank : spawned) {
      while (!listener->peer_connected(rank) &&
             std::chrono::steady_clock::now() < deadline) {
        listener->pump(std::chrono::milliseconds(5));
      }
    }
  };

  DistributedTrainer rank0(d0, listener.get());
  out.rank0 = rank0.train(data, trace, info);
  out.rank0_stats = rank0.stats();

  // Joiner threads may have been appended while training ran; drain until
  // the vector is empty (no more spawns once train() has returned).
  for (;;) {
    std::thread th;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (threads.empty()) break;
      th = std::move(threads.back());
      threads.pop_back();
    }
    th.join();
  }
  return out;
}

}  // namespace booster::gbdt
