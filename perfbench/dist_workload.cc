// dist-fraud: DistributedTrainer with 2 ranks as threads of this process
// over localhost TCP (InProcessWorld(kTcp, 2)), 8 shards, 2 threads per
// rank, fraud-shaped data. Each rank's transport is wrapped in a timing
// decorator, so the wire's frames, bytes, send time and time blocked in
// recv are measured at the transport boundary. The model must be
// bit-identical to the in-process Trainer's.
#include <chrono>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "gbdt/distributed.h"
#include "ipc/codec.h"
#include "ipc/world.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

using namespace booster;

namespace {

/// Forwards every call to the wrapped transport and times send() and the
/// calls that wait for the peer (recv(), pump()) with counters rather than
/// spans: the channel polls recv() with short timeouts, so a span per call
/// would cost more than the work it measures. With `capture` on, the
/// received frames are kept for the codec re-run.
class TimedTransport final : public ipc::Transport {
 public:
  TimedTransport(ipc::Transport* inner, bool capture)
      : inner_(inner), capture_(capture) {}

  std::uint32_t world_size() const override { return inner_->world_size(); }
  std::uint32_t rank() const override { return inner_->rank(); }
  const char* kind() const override { return inner_->kind(); }

  bool send(std::uint32_t dst, std::span<const std::uint8_t> frame) override {
    const std::int64_t t0 = now_ns();
    const bool ok = inner_->send(dst, frame);
    send_ns_ += now_ns() - t0;
    if (ok) {
      ++stats_.frames_sent;
      stats_.bytes_sent += frame.size();
    }
    return ok;
  }

  ipc::RecvStatus recv(std::uint32_t src, std::vector<std::uint8_t>* frame,
                       std::chrono::milliseconds timeout) override {
    const std::int64_t t0 = now_ns();
    const ipc::RecvStatus status = inner_->recv(src, frame, timeout);
    wait_ns_ += now_ns() - t0;
    if (status == ipc::RecvStatus::kOk) {
      ++stats_.frames_received;
      stats_.bytes_received += frame->size();
      if (capture_) captured_.push_back(*frame);
    }
    return status;
  }

  bool membership_capable() const override {
    return inner_->membership_capable();
  }
  void pump(std::chrono::milliseconds timeout) override {
    const std::int64_t t0 = now_ns();
    inner_->pump(timeout);
    wait_ns_ += now_ns() - t0;
  }
  std::vector<ipc::PeerEvent> take_peer_events() override {
    return inner_->take_peer_events();
  }
  bool peer_connected(std::uint32_t rank) const override {
    return inner_->peer_connected(rank);
  }
  void drop_peer(std::uint32_t rank) override { inner_->drop_peer(rank); }
  void shutdown_hard() override { inner_->shutdown_hard(); }

  double send_s() const { return static_cast<double>(send_ns_) * 1e-9; }
  double wait_s() const { return static_cast<double>(wait_ns_) * 1e-9; }
  const std::vector<std::vector<std::uint8_t>>& captured() const {
    return captured_;
  }

 private:
  ipc::Transport* inner_;
  bool capture_;
  std::int64_t send_ns_ = 0;
  std::int64_t wait_ns_ = 0;
  std::vector<std::vector<std::uint8_t>> captured_;
};

struct RankOutcome {
  std::optional<gbdt::TrainResult> result;
  gbdt::DistributedStats stats;
  ipc::TransportStats wire;
  double send_s = 0.0;
  double wait_s = 0.0;
  double wall_s = 0.0;
  std::vector<std::vector<std::uint8_t>> captured;
};

struct DistRun {
  std::vector<RankOutcome> ranks;
  double wall_s = 0.0;
};

constexpr std::uint32_t kRanks = 2;

DistRun train_distributed(const gbdt::DistributedConfig& cfg,
                          const gbdt::BinnedDataset& data, bool capture) {
  DistRun run;
  run.ranks.resize(kRanks);
  const std::int64_t t0 = now_ns();
  {
    ipc::InProcessWorld world(ipc::TransportKind::kTcp, kRanks);
    std::vector<std::thread> threads;
    const std::int32_t parent = SpanRecorder::current();
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      threads.emplace_back([&, r] {
        ScopedSpan span(r == 0 ? "ipc.rank0" : "ipc.rank1", parent);
        RankOutcome& out = run.ranks[r];
        const std::int64_t start = now_ns();
        TimedTransport timed(world.endpoint(r), capture && r == 0);
        gbdt::DistributedTrainer trainer(cfg, &timed);
        out.result = trainer.train(data);
        out.stats = trainer.stats();
        out.wire = timed.stats();
        out.send_s = timed.send_s();
        out.wait_s = timed.wait_s();
        out.captured = timed.captured();
        out.wall_s = seconds_between(start, now_ns());
      });
    }
    for (std::thread& t : threads) t.join();
  }
  run.wall_s = seconds_between(t0, now_ns());
  return run;
}

bool is_shard_histogram(const std::vector<std::uint8_t>& bytes,
                        ipc::Frame* frame) {
  return ipc::HistogramCodec::decode_frame(bytes, frame) ==
             ipc::DecodeStatus::kOk &&
         frame->type == ipc::MessageType::kShardHistogram;
}

/// Re-runs HistogramCodec over the captured shard-histogram frames:
/// decode (frame + histogram) and encode (histogram + frame), MB/s.
void report_codec(const std::vector<std::vector<std::uint8_t>>& frames,
                  const gbdt::BinnedDataset& data, Report* report) {
  std::vector<ipc::ShardHistogramMsg> msgs;
  std::uint64_t bytes = 0;
  for (const auto& f : frames) {
    ipc::Frame frame;
    if (!is_shard_histogram(f, &frame)) continue;
    ipc::ShardHistogramMsg msg;
    if (!ipc::HistogramCodec::decode_shard_histogram(frame.payload, &msg)) {
      continue;
    }
    bytes += f.size();
    msgs.push_back(std::move(msg));
  }
  if (msgs.empty()) {
    report->gate(false, "no shard-histogram frames captured");
    return;
  }
  // Repeat the pass until it is long enough to time well.
  const double mb = static_cast<double>(bytes) * 1e-6;
  int reps = 0;
  std::int64_t t0 = now_ns();
  do {
    for (const ipc::ShardHistogramMsg& m : msgs) {
      const std::vector<std::uint8_t> payload =
          ipc::HistogramCodec::encode_shard_histogram(m);
      const std::vector<std::uint8_t> frame = ipc::HistogramCodec::encode_frame(
          ipc::MessageType::kShardHistogram, 0, payload);
      if (frame.empty()) report->gate(false, "codec re-encode failed");
    }
    ++reps;
  } while (seconds_between(t0, now_ns()) < 0.2);
  report->layer("ipc.codec.encode_mb_per_s",
                mb * reps / seconds_between(t0, now_ns()));

  gbdt::Histogram into(data);
  ipc::ShardHistogramMsg msg;
  reps = 0;
  t0 = now_ns();
  do {
    for (const auto& f : frames) {
      ipc::Frame frame;
      if (!is_shard_histogram(f, &frame)) continue;
      if (!ipc::HistogramCodec::decode_shard_histogram_into(frame.payload, &msg,
                                                            &into)) {
        report->gate(false, "codec re-decode failed");
      }
    }
    ++reps;
  } while (seconds_between(t0, now_ns()) < 0.2);
  report->layer("ipc.codec.decode_mb_per_s",
                mb * reps / seconds_between(t0, now_ns()));
}

}  // namespace

void run_dist(const Options& opt, Report* report) {
  const workloads::DatasetSpec spec = workloads::fraud_spec();
  gbdt::DistributedConfig cfg;
  cfg.trainer.num_trees = 10;
  cfg.trainer.max_depth = 6;
  cfg.trainer.loss = spec.loss;
  cfg.trainer.num_shards = 8;
  cfg.trainer.num_threads = 2;

  std::vector<double> setup_s;
  std::vector<double> binning_s;
  Prepared data;
  for (int i = 0; i < kSetups; ++i) {
    data = Prepared{};
    const std::int64_t t0 = now_ns();
    data = prepare(spec, 200'000, 20'000, opt.seed);
    setup_s.push_back(seconds_between(t0, now_ns()));
    binning_s.push_back(data.binning_s);
  }
  report->e2e("setup_s", median(setup_s), setup_s.size());

  // The in-process reference every distributed model must match.
  std::int64_t t0 = now_ns();
  const gbdt::TrainResult reference =
      gbdt::Trainer(cfg.trainer).train(data.train);
  const double reference_s = seconds_between(t0, now_ns());
  const std::uint64_t digest = model_digest(reference.model);
  const std::vector<double> expected =
      predict_all(reference.model, data.holdout);
  const double loss = logloss(expected, data.holdout_raw);

  // Warm-up run (thread and socket set-up paths), then the timed runs.
  const auto check = [&](const DistRun& run) {
    for (const RankOutcome& r : run.ranks) {
      report->attempt(r.result && model_digest(r.result->model) == digest,
                      "distributed model differs from the in-process Trainer");
    }
  };
  check(train_distributed(cfg, data.train, false));
  // Timed runs, each followed by a slice of the in-process request path on
  // the (bit-identical) reference model.
  RequestPath path(reference.model, data.train, data.holdout_raw, expected, 1);
  std::vector<double> train_s;
  DistRun last;
  double train_cpu_s = 0.0;
  const std::int64_t loop_start = now_ns();
  while (train_s.size() < 3 ||
         seconds_between(loop_start, now_ns()) < opt.seconds) {
    const double cpu0 = process_cpu_s();
    last = train_distributed(cfg, data.train, false);
    train_cpu_s += process_cpu_s() - cpu0;
    train_s.push_back(last.wall_s);
    check(last);
    path.run(0.15 * last.wall_s);
  }
  double train_wall_s = 0.0;
  for (const double s : train_s) train_wall_s += s;
  const double cpu_per_wall = train_cpu_s / train_wall_s;
  report->e2e("train_s", median(train_s), train_s.size());
  const double dist_loss = logloss(
      predict_all(last.ranks[0].result->model, data.holdout), data.holdout_raw);
  report->e2e("holdout_logloss", dist_loss, data.holdout_raw.num_records());
  report->gate(dist_loss == loss,
               "holdout_logloss differs from the in-process Trainer's");

  double bytes = 0.0;
  double frames = 0.0;
  for (const RankOutcome& r : last.ranks) {
    bytes += static_cast<double>(r.wire.bytes_sent);
    frames += static_cast<double>(r.wire.frames_sent);
  }
  report->extra("wire_mb", bytes * 1e-6, "MB");

  report_predict_e2e(path.result(), report);
  report->note("threads", "2 ranks x 2 threads");

  if (opt.traced) {
    report_serve_stages(path.result(), report);
    t0 = now_ns();
    const DistRun traced = train_distributed(cfg, data.train, true);
    const double traced_s = seconds_between(t0, now_ns());
    check(traced);
    const RankOutcome& r0 = traced.ranks[0];
    double send_s = 0.0;
    double retransmits = 0.0;
    double heartbeats = 0.0;
    for (const RankOutcome& r : traced.ranks) {
      send_s += r.send_s;
      retransmits += static_cast<double>(r.stats.channel.retransmits);
      heartbeats += static_cast<double>(r.stats.channel.heartbeats_sent);
    }
    report->layer("ipc.transport.frames", frames);
    report->layer("ipc.transport.bytes", bytes);
    report->layer("ipc.transport.send_s", send_s);
    report->layer("ipc.transport.recv_wait_s", r0.wait_s);
    report->layer("ipc.rank0.busy_s", r0.wall_s - r0.wait_s);
    report->layer("ipc.reliable.retransmits", retransmits);
    report->layer("ipc.reliable.heartbeats_sent", heartbeats);
    report->layer("gbdt.dist.histogram_merges",
                  static_cast<double>(r0.result->hot_path.histogram_merges));
    report_codec(r0.captured, data.train, report);

    report->layer("gbdt.binning.s", median(binning_s), binning_s.size());
    report->layer("gbdt.cold_train.s", reference_s);
    report->layer(
        "gbdt.hist_pool.allocations",
        static_cast<double>(reference.hot_path.histogram_allocations));
    report->layer("util.thread_pool.threads", reference.hot_path.threads);
    report->layer("util.thread_pool.cpu_per_wall", cpu_per_wall);
    gbdt::TrainerConfig single = cfg.trainer;
    single.num_shards = 1;
    report_training_layers(single, data.train, reference_s, digest, report);
    report->layer("trace.overhead_s", traced_s - median(train_s));
  }
  report->e2e("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
