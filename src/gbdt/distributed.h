// Distributed sharded GBDT training over a pluggable histogram transport.
// The world is a star of `world_size` ranks around rank 0, and every world
// runs the same protocol:
//
//   * every rank holds the same BinnedDataset and the same config, so the
//     global shard partition agrees without communication;
//   * rank 0 owns the membership view. At every tree boundary it admits
//     connected ranks (a catch-up message carries every finished tree),
//     drops dead ones, recomputes the contiguous shard->rank assignment
//     over the live participants, and sends each worker its range for
//     the tree (kShardAssign);
//   * workers build per-shard node histograms over their range (a
//     gbdt::ShardGroup) and ship them to rank 0 over ipc::ReliableChannel
//     (versioned, checksummed, sequence-numbered frames --
//     ipc::HistogramCodec); rank 0 merges shard histograms with
//     Histogram::add in fixed global shard order, runs the split scan, and
//     broadcasts each split decision. Finished trees and per-tree verdicts
//     broadcast the same way, and a final assignment ends the run, so
//     every rank returns the same model;
//   * faults are survived by the channel's retry protocol; a worker that
//     shows no sign of life past its liveness deadline is declared dead,
//     rank 0 re-executes its shards locally (catch-up replay of finished
//     trees plus the current tree's decision log), and the next boundary
//     drops it from the view.
//
// Membership comes from the transport. Loopback (fault-wrapped or not)
// has no membership events and reports every rank connected, so its
// whole world enters at tree 0 and changes only through adoption: a
// static world is the case whose membership never changes. TCP also
// reports late joins and new sessions (a rank that died and came back),
// which rank 0 admits at the next boundary. With no transport at all
// (nullptr) the trainer is a single-rank world -- the engine
// ShardedTrainer delegates to.
//
// Because the shard merge is quantized-exact and the per-shard partition
// is stable, every regrouping is a pure recomputation: the trained
// model -- structure, weights, gains, per-tree losses, predictions, and
// rank-0's StepTrace -- is bit-identical to gbdt::Trainer at every
// (transport, world size, shard count, thread count), under every
// recoverable injected fault, and through kill / hang / join / rejoin
// churn. tests/test_distributed.cc, tests/test_distributed_faults.cc and
// tests/test_elastic.cc EXPECT_EQ-assert it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>

#include "gbdt/trainer.h"
#include "ipc/membership.h"
#include "ipc/reliable.h"
#include "ipc/tcp_transport.h"
#include "ipc/transport.h"
#include "ipc/world.h"

namespace booster::gbdt {

/// Where in a worker's per-tree loop a churn hook fires.
enum class ElasticChurnPoint : std::uint8_t {
  kTreeStart = 0,       // assignment received, before any build
  kAfterFirstBuild,     // root histograms already shipped to rank 0
};

/// What an injected churn hook tells the worker to do.
enum class ElasticChurnAction : std::uint8_t {
  kContinue = 0,
  kCrash,  // shutdown_hard() the transport and return (SIGKILL stand-in)
  kHang,   // return without closing: the connection stays half-open
};

struct DistributedConfig {
  TrainerConfig trainer;
  /// Retry protocol knobs (per-attempt timeout, liveness deadline, resend
  /// window).
  ipc::ReliableConfig channel;
  /// Re-execute a dead worker's shards on rank 0 (catch-up replay). When
  /// off, a dead worker aborts training loudly.
  bool adopt_dead_workers = true;
  /// Worker-side fault-injection hook for churn tests: consulted at the
  /// ElasticChurnPoints of every tree. Null means kContinue.
  std::function<ElasticChurnAction(std::uint32_t tree, ElasticChurnPoint)>
      churn_hook;
  /// Rank-0 hook fired at every tree boundary *before* membership is
  /// re-evaluated -- the churn harness uses it to launch late joiners.
  std::function<void(std::uint32_t tree)> on_tree_boundary;
};

/// Post-train diagnostics of one rank's view of the run.
struct DistributedStats {
  std::uint32_t world_size = 1;
  std::uint32_t rank = 0;
  std::uint32_t shards_total = 0;
  /// Rank 0: its tree-0 range; worker: its latest assigned range.
  std::uint32_t shards_local = 0;
  std::uint32_t shards_adopted = 0;  // re-executed for dead workers (rank 0)
  std::uint32_t dead_workers = 0;
  /// Rank 0: tree boundaries at which the live-member set -- and with it
  /// the shard assignment -- changed after the initial one.
  std::uint32_t repartitions = 0;
  /// Rank 0: workers admitted after training started.
  std::uint32_t joins = 0;
  /// Worker: 1 when this worker lost its coordinator and returned
  /// gracefully with whatever model prefix it had.
  std::uint32_t orphaned = 0;
  ipc::ReliableStats channel;
  ipc::TransportStats transport;
};

class DistributedTrainer {
 public:
  /// `transport` is this rank's endpoint (borrowed; may outlive the
  /// trainer). nullptr runs a single-rank world with no communication --
  /// exactly ShardedTrainer's engine (and what ShardedTrainer delegates
  /// to).
  DistributedTrainer(DistributedConfig cfg, ipc::Transport* transport);

  const DistributedConfig& config() const { return cfg_; }
  std::uint32_t rank() const;
  std::uint32_t world_size() const;

  /// Trains the ensemble. All ranks must call train with the identical
  /// dataset and config, concurrently. Every rank returns the same model,
  /// tree stats, and early-stop flag; `trace`/`info` are filled from
  /// rank 0's driver loop (workers fill `info` and leave `trace` empty --
  /// the trace needs merge-side quantities only rank 0 has).
  /// TrainResult.hot_path.per_shard covers the shards this rank executed
  /// (all of them on rank 0 of a single-rank world), in global shard
  /// order; a shard it ran in several groups across regroups is one entry
  /// whose counters cover all of them. A worker that loses
  /// rank 0 returns the model prefix it has, with stats().orphaned set.
  TrainResult train(const BinnedDataset& data,
                    trace::StepTrace* trace = nullptr,
                    trace::WorkloadInfo* info = nullptr);

  /// Diagnostics of the last train() call.
  const DistributedStats& stats() const { return stats_; }

 private:
  /// Rank 0: owns the membership view, merges, decides, broadcasts.
  TrainResult coordinate(const BinnedDataset& data, trace::StepTrace* trace,
                         trace::WorkloadInfo* info);
  /// Worker: follows the catch-up / assignment / decision stream.
  TrainResult follow(const BinnedDataset& data, trace::WorkloadInfo* info);

  DistributedConfig cfg_;
  ipc::Transport* transport_;
  DistributedStats stats_;
};

/// Runs a full `world`-sized training world in this process, one thread
/// per rank, and returns rank 0's result. `all_results` (optional)
/// receives the *worker* ranks' results (ranks 1..R-1, in rank order;
/// TrainResult is move-only, so rank 0's lives in the return value);
/// `all_stats` receives per-rank stats indexed by rank. The convenience
/// harness behind the equivalence tests, bench_distributed, the scenario
/// runner's runner.procs knob, and the multi_process example's loopback
/// mode. Aborts if any worker was orphaned: in one process, a lost
/// coordinator means the world broke.
TrainResult train_in_process(const DistributedConfig& cfg,
                             ipc::InProcessWorld& world,
                             const BinnedDataset& data,
                             trace::StepTrace* trace = nullptr,
                             trace::WorkloadInfo* info = nullptr,
                             std::vector<TrainResult>* all_results = nullptr,
                             std::vector<DistributedStats>* all_stats = nullptr);

/// Configuration of one elastic localhost-TCP training world driven by a
/// seeded churn schedule (tests, bench, and the scenario runner's
/// runner.transport=tcp + runner.churn knobs).
struct ElasticWorldConfig {
  DistributedConfig dist;
  /// Workers connected before training starts (ranks 1..initial_workers).
  std::uint32_t initial_workers = 1;
  /// Rank-address space of the TCP world; 0 derives it from
  /// initial_workers and the highest rank in the churn schedule.
  std::uint32_t max_world = 0;
  /// Kill / hang / join events, keyed by (rank, tree). Kills fire after
  /// the victim shipped its root histograms (mid-tree adoption); hangs
  /// fire at tree start (half-open liveness detection); joins launch a
  /// fresh incarnation at rank 0's tree boundary (admitted one boundary
  /// later).
  ipc::ChurnSchedule churn;
  /// TCP knobs shared by every endpoint (backoff, reconnect window,
  /// heartbeats come from dist.channel).
  ipc::TcpOptions tcp;
  std::chrono::milliseconds assemble_timeout{15000};
};

/// Outcome of one elastic run: rank 0's result plus every worker
/// incarnation's, partitioned by how the incarnation ended.
struct ElasticRunResult {
  /// Always engaged on return (optional only because TrainResult has no
  /// empty state to default-construct).
  std::optional<TrainResult> rank0;
  DistributedStats rank0_stats;
  /// Results of worker incarnations that ran to the final assignment
  /// (model bit-identical to rank0's), in completion order.
  std::vector<TrainResult> completed;
  std::vector<DistributedStats> completed_stats;
  std::uint32_t crashed = 0;   // churn-injected kCrash incarnations
  std::uint32_t hung = 0;      // churn-injected kHang incarnations
  std::uint32_t orphaned = 0;  // lost the coordinator, returned early
};

/// Runs one elastic world over real localhost TCP: rank 0 listens on an
/// ephemeral port and trains on the calling thread; worker incarnations
/// run on their own threads (one per initial worker plus one per join
/// event). Returns after every incarnation thread has been joined.
/// `trace`/`info` are filled from rank 0's driver loop, as in
/// DistributedTrainer::train.
ElasticRunResult train_elastic_tcp(const ElasticWorldConfig& cfg,
                                   const BinnedDataset& data,
                                   trace::StepTrace* trace = nullptr,
                                   trace::WorkloadInfo* info = nullptr);

}  // namespace booster::gbdt
