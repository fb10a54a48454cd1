// The prediction server: a single-threaded HTTP/1.1 event loop on the
// shared epoll ipc::Poller (the same readiness idiom the TCP training
// transport uses) that turns concurrent request streams into *batched*
// ensemble traversals.
//
// The core serving idea mirrors the trainer's blocked step-5 kernel: rows
// arriving on different connections inside one batching window are staged
// column-major and pushed through FlatEnsemble's column-pointer
// predict_many in blocked passes of at most max_batch_rows, so the flat
// node tables are walked once per tile of rows instead of once per
// request -- tree-node cache misses amortize across connections exactly as
// they amortize across records in training. Batching changes *nothing*
// numerically: predict_many is per-row independent, so each row's
// prediction is bit-identical to local Model::predict, whatever batch or
// sub-batch it lands in (asserted end-to-end by tests/test_serve.cc and
// bench_serve).
//
// Endpoints:
//   POST /predict  body = feature rows, CSV lines or a JSON array of
//                  arrays; responds text/plain, one prediction per row
//                  in the shortest text that round-trips the double
//                  (std::to_chars), plus X-Model-Version. 503 +
//                  Retry-After when shed by admission control (see
//                  below).
//   GET  /healthz  liveness probe
//   GET  /stats    serving counters as JSON
//   POST /reload   body = path of a checked model container; swaps the
//                  served model atomically (in-flight batches finish on
//                  the old version), 409 + distinct status text on a
//                  corrupt/truncated file or when a reload is already in
//                  flight
// Targets are routed on the path only: anything after a '?' is ignored
// (the raw target, query string included, is what the parser delivers).
//
// Overload robustness -- four cooperating mechanisms, all measured in
// GET /stats:
//
//   Admission control. The staged batch queue is bounded by
//   shed_rows_watermark / shed_requests_watermark: a /predict that arrives
//   past either watermark is shed immediately with 503 + Retry-After
//   (requests_shed), so every *admitted* request has a bounded amount of
//   work queued ahead of it and p999 stays bounded under overload instead
//   of growing with the offered load.
//
//   Off-loop reload. /reload hands the container path to a dedicated
//   reload worker thread which does the file read, CRC check, and
//   FlatEnsemble flattening off the event loop, then posts the result
//   through a mailbox drained via the loop's WakeFd. The requester gets
//   its response when the install lands; concurrent requests on other
//   connections are never stalled by the load (reload_stall_us_total/max
//   now measure only the on-loop hand-off and result-drain slivers, so
//   they stay near zero however large the model). At most one reload is
//   in flight; a /reload arriving while one is running is refused with
//   409 (reloads_rejected). In-flight batches still finish on the model
//   they pinned -- a swap changes the *next* batch, never a running one.
//
//   Write-side backpressure. conn.out is bounded: past out_high_watermark
//   the connection's read interest is dropped (out_buffer_pauses) so a
//   peer that pipelines predicts without reading responses stops being
//   parsed and batched; reads resume once the backlog drains to
//   out_low_watermark (out_buffer_resumes). A peer whose backlog still
//   reaches out_max_bytes is hard-closed (out_buffer_closes) -- the bound
//   that turns an unread-response OOM vector into a bounded buffer.
//
//   Idle reaping. A coarse periodic sweep (every idle_timeout/4) closes
//   connections with no request in flight and no socket activity for
//   idle_timeout (idle_reaped), so slow-loris peers cannot pin
//   max_connections slots. idle_timeout zero disables the sweep.
//
// Read fairness: at most max_read_per_round bytes are drained from one
// connection per readiness round; a peer with more buffered is re-visited
// on the next epoll round (the poller is level-triggered, so a socket
// with unread bytes reports readable again immediately), after every
// other ready connection has had its turn.
//
// Per-connection state machines ride on a recycling BufferPool, so the
// steady state (connection churn included) allocates nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gbdt/binning.h"
#include "ipc/poller.h"
#include "serve/buffer_pool.h"
#include "serve/http.h"
#include "serve/model_slot.h"
#include "serve/row_binner.h"

namespace booster::serve {

struct ServerConfig {
  /// Loopback port; 0 asks the kernel (read the result from port()).
  std::uint16_t port = 0;
  /// How long the first staged row may wait for connection-mates before
  /// the batch flushes. Zero = flush at the end of every poll round: rows
  /// that arrived in one readiness sweep still batch, nothing ever waits
  /// for a timer.
  std::chrono::microseconds batch_window{0};
  /// Traversal tile size: a flush runs predict_many in sub-batches of at
  /// most this many rows, and with a nonzero window the batch flushes as
  /// soon as the staged backlog reaches it.
  std::uint32_t max_batch_rows = 1024;
  std::uint32_t max_connections = 1024;
  /// Admission watermarks: a /predict arriving while staged_rows_ (resp.
  /// the staged-request count) is at or past this is shed with 503 +
  /// Retry-After instead of joining the queue. Defaults are far above
  /// anything a closed-loop client reaches; lower them to make shedding
  /// kick in earlier under open-loop overload.
  std::uint64_t shed_rows_watermark = 16384;
  std::uint64_t shed_requests_watermark = 4096;
  /// Write-side backpressure on conn.out (unsent response bytes): past
  /// `high` the connection's read interest drops (it stops being parsed
  /// and batched), reads resume at `low`, and a backlog that still hits
  /// `max` hard-closes the connection.
  std::size_t out_high_watermark = std::size_t{1} << 20;   // 1 MiB
  std::size_t out_low_watermark = std::size_t{128} << 10;  // 128 KiB
  std::size_t out_max_bytes = std::size_t{16} << 20;       // 16 MiB
  /// Read-fairness cap: bytes drained from one connection per readiness
  /// round before the loop moves on (level-triggered epoll re-reports the
  /// socket next round).
  std::size_t max_read_per_round = std::size_t{256} << 10;  // 256 KiB
  /// Connections with no in-flight request and no socket activity for
  /// this long are closed by the periodic sweep; zero disables reaping.
  std::chrono::milliseconds idle_timeout{60000};
  /// When positive, SO_SNDBUF for every accepted connection. Pinning the
  /// kernel send buffer disables autotuning (which otherwise grows it
  /// toward tcp_wmem[2], multi-MiB on stock kernels), bounding per-
  /// connection kernel memory and making out_max_bytes bite after a
  /// predictable amount of kernel-side absorption. Zero keeps the kernel
  /// default.
  int so_sndbuf = 0;
  ParserLimits limits;
};

/// Serving counters. Owned and mutated by the event-loop thread;
/// externally read either via GET /stats (on-loop, always consistent) or
/// via Server::stats() after run() returns.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  // over max_connections
  /// All requests that produced a response, parse-rejected ones
  /// (400/413/431/501) included -- responses_* never exceeds this.
  std::uint64_t requests = 0;
  std::uint64_t predict_rows = 0;
  std::uint64_t batches = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t responses_2xx = 0;
  std::uint64_t responses_4xx = 0;
  std::uint64_t responses_5xx = 0;
  std::uint64_t reloads = 0;
  /// /predict requests shed by admission control (503 + Retry-After).
  std::uint64_t requests_shed = 0;
  /// /reload requests refused: one already in flight, or the load failed.
  std::uint64_t reloads_rejected = 0;
  /// Write-side backpressure transitions (see ServerConfig).
  std::uint64_t out_buffer_pauses = 0;
  std::uint64_t out_buffer_resumes = 0;
  std::uint64_t out_buffer_closes = 0;
  /// High-water mark of any single connection's unsent response backlog.
  std::uint64_t out_high_water_bytes = 0;
  /// Connections closed by the idle sweep.
  std::uint64_t idle_reaped = 0;
  /// Wall time /reload handling spent *on the event loop*: the hand-off
  /// to the reload worker plus the result drain. The load + CRC + flatten
  /// itself runs on the worker thread and is deliberately not in here --
  /// these counters exist to prove the loop no longer stalls O(model
  /// bytes) per reload.
  std::uint64_t reload_stall_us_total = 0;
  std::uint64_t reload_stall_us_max = 0;
  /// batch_size_hist[b] counts flushed sub-batches with row count in
  /// [2^b, 2^(b+1)) -- the distribution that shows whether concurrent
  /// connections actually coalesce.
  std::vector<std::uint64_t> batch_size_hist = std::vector<std::uint64_t>(16);
  std::uint64_t buffer_allocations = 0;
  std::uint64_t buffer_acquires = 0;
};

class Server {
 public:
  /// Binds and listens immediately (so port() is valid before run());
  /// aborts if the port cannot be bound. `slot` must outlive the server;
  /// `binning_reference` provides the frozen bin metadata and is not
  /// retained. Starts the reload worker thread (joined in the dtor).
  Server(ServerConfig cfg, ModelSlot* slot,
         const gbdt::BinnedDataset& binning_reference);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const { return port_; }

  /// Runs the event loop on the calling thread until stop().
  void run();

  /// Thread-safe; run() returns promptly (current batch flushes and an
  /// in-flight reload lands first).
  void stop();

  /// Counter snapshot; see ServerStats for the threading contract.
  const ServerStats& stats() const { return stats_; }

 private:
  struct Connection {
    int fd = -1;
    std::string in;   // pooled
    std::string out;  // pooled
    std::size_t out_offset = 0;
    RequestParser parser;
    /// Staged /predict requests awaiting the batch flush. While > 0,
    /// parsing of non-predict requests pauses so responses stay in
    /// request order.
    std::uint32_t pending = 0;
    bool read_closed = false;       // peer EOF / error: never read again
    bool close_after_flush = false; // close once `out` fully drains
    /// Read interest dropped by write-side backpressure; parsing and
    /// recv are both suspended until the out backlog drains to the low
    /// watermark.
    bool paused_read = false;
    /// A /reload from this connection is on the worker; parsing pauses
    /// until its response is enqueued so pipelined responses keep
    /// request order.
    bool reload_waiting = false;
    bool want_read = true;          // EPOLLIN currently requested
    bool want_write = false;        // EPOLLOUT currently requested
    /// Last socket progress (accept, recv bytes, send bytes); the idle
    /// sweep compares against it.
    std::chrono::steady_clock::time_point last_activity;
  };

  /// One response slot in batch order. A /predict slot (`rows` > 0) owns
  /// `rows` predictions starting at `first_row` of the batch; a slot with
  /// rows == 0 carries a prebuilt `immediate` response that was parsed
  /// *behind* a staged predict on the same connection and must keep its
  /// place in line -- this is what keeps pipelined responses in request
  /// order across the batch boundary.
  struct StagedRequest {
    std::uint64_t conn_id = 0;
    std::uint64_t first_row = 0;
    std::uint32_t rows = 0;
    bool keep_alive = true;
    std::string immediate;
  };

  /// A reload accepted from `conn_id`, queued for the worker thread.
  struct ReloadJob {
    std::uint64_t conn_id = 0;
    bool keep_alive = true;
    std::string path;
  };
  /// The worker's finished install, posted back for the loop to drain.
  struct ReloadDone {
    std::uint64_t conn_id = 0;
    bool keep_alive = true;
    gbdt::ModelFileStatus status = gbdt::ModelFileStatus::kOk;
    std::uint64_t version = 0;
  };

  void accept_new_connections();
  void close_connection(std::uint64_t id);
  void handle_readable(std::uint64_t id);
  /// Parses every complete request out of conn.in; stops early while the
  /// connection is paused by backpressure or waiting on a reload.
  void process_input(std::uint64_t id);
  void handle_request(std::uint64_t id, Request&& req);
  void handle_predict(std::uint64_t id, const Request& req);
  /// Serializes a response (counting its status class) into `out` -- a
  /// connection buffer or a staged slot's `immediate`.
  void build_response(std::string* out, int status,
                      std::string_view content_type, std::string_view body,
                      bool keep_alive, std::string_view extra_headers = {});
  /// Routes a response to the connection: straight into conn.out when
  /// nothing is pending, into an ordered staged slot otherwise.
  void enqueue_response(std::uint64_t id, int status,
                        std::string_view content_type, std::string_view body,
                        bool keep_alive, std::string_view extra_headers = {});
  void flush_batch();
  /// Repeats {flush if due, pump dirty connections} until quiescent --
  /// the end-of-round settling point where resumed connections' freshly
  /// parsed requests still flush in the same round.
  void settle();
  /// Sends what it can of conn.out now; arms EPOLLOUT on short writes,
  /// closes when drained and the connection is finished, enforces the
  /// out_max_bytes hard close, and resumes paused reads at the low
  /// watermark.
  void pump_output(std::uint64_t id);
  void update_interest(std::uint64_t id);
  /// Tracks the out-backlog high-water mark and pauses reads past the
  /// high watermark. Called wherever response bytes are appended.
  void apply_out_watermarks(Connection& conn);
  /// Closes connections idle past cfg_.idle_timeout (coarse sweep, at
  /// most every idle_timeout/4).
  void reap_idle();
  /// Moves a finished reload out of the mailbox, responds to the
  /// requester, and resumes its parsing.
  void drain_reload();
  void reload_worker_main();
  std::string stats_json() const;

  ServerConfig cfg_;
  ModelSlot* slot_;
  RowBinner binner_;

  ipc::Poller poller_;
  ipc::TimerFd batch_timer_;
  ipc::WakeFd wake_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};

  std::unordered_map<std::uint64_t, Connection> conns_;
  std::uint64_t next_conn_id_ = 0;
  BufferPool pool_;

  // Batch staging: per-field columns + per-request slices, reused across
  // batches (capacity-warm, allocation-free in steady state).
  std::vector<std::vector<gbdt::BinIndex>> staged_columns_;
  std::vector<StagedRequest> staged_requests_;
  /// Connections whose `out` grew during a flush; pumped at the next safe
  /// point of the event loop (a flush must never close a connection out
  /// from under a caller holding a reference into conns_).
  std::vector<std::uint64_t> dirty_;
  std::vector<std::uint64_t> pump_scratch_;
  std::vector<std::uint64_t> reap_scratch_;
  std::uint64_t staged_rows_ = 0;
  bool timer_armed_ = false;
  /// The model pinned when the current batch's first row was staged: the
  /// whole batch runs on it even if a reload lands mid-window.
  std::shared_ptr<const ServedModel> batch_model_;
  std::vector<const gbdt::BinIndex*> column_ptrs_;
  std::vector<double> batch_out_;
  std::string body_scratch_;
  std::string header_scratch_;

  /// Reload worker hand-off. The loop thread owns reload_inflight_ (at
  /// most one job between submit and drain); the mailbox pair below is
  /// guarded by reload_mu_. The worker signals completion through both
  /// wake_ (normal drain on the loop) and reload_done_cv_ (the shutdown
  /// path waits for an in-flight install to land before run() returns).
  std::thread reload_thread_;
  std::mutex reload_mu_;
  std::condition_variable reload_cv_;       // worker waits for jobs
  std::condition_variable reload_done_cv_;  // shutdown waits for results
  std::optional<ReloadJob> pending_reload_;   // guarded by reload_mu_
  std::optional<ReloadDone> finished_reload_; // guarded by reload_mu_
  bool reload_shutdown_ = false;              // guarded by reload_mu_
  bool reload_inflight_ = false;              // loop thread only

  /// The loop's per-round clock (one steady_clock read per round, shared
  /// by activity stamps and the idle sweep).
  std::chrono::steady_clock::time_point now_;
  std::chrono::steady_clock::time_point last_reap_;

  ServerStats stats_;
};

}  // namespace booster::serve
