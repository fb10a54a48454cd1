#include "serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <span>
#include <string_view>
#include <utility>

#include "sim/json.h"
#include "util/check.h"

namespace booster::serve {

namespace {

// Sentinel tags for the loop-owned fds; connection ids count up from 0
// and can never collide with these.
constexpr std::uint64_t kListenTag = ~std::uint64_t{0};
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0} - 1;
constexpr std::uint64_t kTimerTag = ~std::uint64_t{0} - 2;

constexpr std::size_t kRecvChunk = 16384;

/// Shortest text that parses back to exactly `value` (std::to_chars'
/// round-trip guarantee), so parse_predictions recovers the bits.
void format_prediction(std::string* out, double value) {
  char buf[40];  // the longest shortest-form double is 24 chars
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf) - 1, value);
  BOOSTER_CHECK_MSG(ec == std::errc(), "to_chars overflowed its buffer");
  *end = '\n';
  out->append(buf, static_cast<std::size_t>(end - buf) + 1);
}

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point begin) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - begin)
          .count());
}

}  // namespace

Server::Server(ServerConfig cfg, ModelSlot* slot,
               const gbdt::BinnedDataset& binning_reference)
    : cfg_(cfg), slot_(slot), binner_(binning_reference) {
  BOOSTER_CHECK_MSG(slot_ != nullptr, "Server needs a ModelSlot");
  BOOSTER_CHECK_MSG(binner_.num_fields() > 0,
                    "Server needs at least one feature field");
  listen_fd_ = ipc::listen_tcp_loopback(cfg_.port, &port_);
  BOOSTER_CHECK_MSG(listen_fd_ >= 0, "Server failed to bind 127.0.0.1");
  BOOSTER_CHECK_MSG(poller_.add(listen_fd_, kListenTag, true, false),
                    "epoll rejected the listening socket");
  BOOSTER_CHECK_MSG(poller_.add(wake_.fd(), kWakeTag, true, false),
                    "epoll rejected the wake fd");
  BOOSTER_CHECK_MSG(poller_.add(batch_timer_.fd(), kTimerTag, true, false),
                    "epoll rejected the batch timer fd");
  binner_.reset_columns(&staged_columns_);
  now_ = std::chrono::steady_clock::now();
  last_reap_ = now_;
  reload_thread_ = std::thread([this] { reload_worker_main(); });
}

Server::~Server() {
  {
    const std::scoped_lock lock(reload_mu_);
    reload_shutdown_ = true;
  }
  reload_cv_.notify_one();
  if (reload_thread_.joinable()) reload_thread_.join();
  for (auto& [id, conn] : conns_) {
    poller_.remove(conn.fd);
    ::close(conn.fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    poller_.remove(listen_fd_);
    ::close(listen_fd_);
  }
}

void Server::stop() {
  stop_.store(true, std::memory_order_release);
  wake_.notify();
}

void Server::run() {
  std::vector<ipc::Poller::Event> events;
  now_ = std::chrono::steady_clock::now();
  last_reap_ = now_;
  while (!stop_.load(std::memory_order_acquire)) {
    auto timeout = std::chrono::milliseconds(100);
    if (cfg_.idle_timeout.count() > 0) {
      // The sweep cadence bounds how late a reap can run; never sleep
      // past a quarter of the timeout.
      timeout = std::min(
          timeout, std::max(cfg_.idle_timeout / 4,
                            std::chrono::milliseconds(1)));
    }
    poller_.wait(timeout, &events);
    now_ = std::chrono::steady_clock::now();
    for (const auto& ev : events) {
      if (ev.tag == kListenTag) {
        accept_new_connections();
      } else if (ev.tag == kWakeTag) {
        wake_.drain();
        drain_reload();
      } else if (ev.tag == kTimerTag) {
        if (batch_timer_.consume() > 0) {
          timer_armed_ = false;
          flush_batch();
        }
      } else {
        // A connection may have been closed by an earlier event this
        // round; dispatch strictly through lookups.
        auto it = conns_.find(ev.tag);
        if (it == conns_.end()) continue;
        if (ev.error) {
          close_connection(ev.tag);
          continue;
        }
        // Hangup still delivers buffered bytes; the recv loop below sees
        // the EOF itself, so hangup needs no special casing.
        if (ev.readable || ev.hangup) handle_readable(ev.tag);
        if (ev.writable && conns_.count(ev.tag) != 0) pump_output(ev.tag);
      }
    }
    settle();
    if (cfg_.idle_timeout.count() > 0) reap_idle();
  }
  // Orderly shutdown: let an in-flight reload land (its requester is
  // still owed a response), then answer everything already staged.
  if (reload_inflight_) {
    {
      std::unique_lock<std::mutex> lock(reload_mu_);
      reload_done_cv_.wait(lock,
                           [this] { return finished_reload_.has_value(); });
    }
    drain_reload();
  }
  flush_batch();
  settle();
  stats_.buffer_allocations = pool_.allocations();
  stats_.buffer_acquires = pool_.acquires();
}

void Server::settle() {
  while (true) {
    // With window 0 anything staged this round flushes now; with a
    // window the flush waits for the timer unless the backlog already
    // fills a traversal tile.
    const bool flush_due =
        !staged_requests_.empty() &&
        (cfg_.batch_window.count() == 0 ||
         staged_rows_ >= cfg_.max_batch_rows);
    if (flush_due) flush_batch();
    if (dirty_.empty()) break;
    // Pumping can resume paused connections whose parsed requests stage
    // more rows, so loop until nothing new appears.
    pump_scratch_.swap(dirty_);
    for (const std::uint64_t id : pump_scratch_) pump_output(id);
    pump_scratch_.clear();
  }
}

void Server::accept_new_connections() {
  while (true) {
    const int fd = ipc::accept_nonblocking(listen_fd_);
    if (fd < 0) break;
    if (conns_.size() >= cfg_.max_connections) {
      ++stats_.connections_rejected;
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (cfg_.so_sndbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &cfg_.so_sndbuf,
                   sizeof(cfg_.so_sndbuf));
    }
    const std::uint64_t id = next_conn_id_++;
    Connection conn;
    conn.fd = fd;
    conn.in = pool_.acquire();
    conn.out = pool_.acquire();
    conn.parser = RequestParser(cfg_.limits);
    conn.last_activity = now_;
    if (!poller_.add(fd, id, true, false)) {
      ::close(fd);
      pool_.release(std::move(conn.in));
      pool_.release(std::move(conn.out));
      continue;
    }
    conns_.emplace(id, std::move(conn));
    ++stats_.connections_accepted;
  }
}

void Server::close_connection(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  poller_.remove(conn.fd);
  ::close(conn.fd);
  pool_.release(std::move(conn.in));
  pool_.release(std::move(conn.out));
  // Staged slots pointing at this connection stay in the batch; the flush
  // skips them when the lookup fails. A reload in flight for it is
  // likewise dropped at drain time.
  conns_.erase(it);
}

void Server::handle_readable(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  if (!conn.read_closed && !conn.paused_read) {
    char buf[kRecvChunk];
    std::size_t drained = 0;
    while (drained < cfg_.max_read_per_round) {
      const std::size_t want =
          std::min(sizeof(buf), cfg_.max_read_per_round - drained);
      const ssize_t n = ::recv(conn.fd, buf, want, 0);
      if (n > 0) {
        conn.in.append(buf, static_cast<std::size_t>(n));
        stats_.bytes_in += static_cast<std::uint64_t>(n);
        drained += static_cast<std::size_t>(n);
        conn.last_activity = now_;
        continue;
      }
      if (n == 0) {
        // Peer half-closed: everything already buffered still gets parsed
        // and answered (shutdown(SHUT_WR) clients), then we close.
        conn.read_closed = true;
        conn.close_after_flush = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(id);
      return;
    }
    // Fairness cap hit with bytes still buffered: stop here so every
    // other ready connection gets its turn this round. The poller is
    // level-triggered, so this socket reports readable again on the very
    // next epoll round -- no extra bookkeeping needed to re-visit it.
  }
  process_input(id);
  pump_output(id);
}

void Server::process_input(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  // Backpressure / reload ordering: a paused connection keeps its bytes
  // buffered (nothing is consumed) until pump_output resumes it; a
  // connection waiting on an off-loop reload parses nothing more until
  // the reload response is enqueued, so responses keep request order.
  if (conn.paused_read || conn.reload_waiting) return;
  std::size_t off = 0;
  while (true) {
    std::size_t used = 0;
    Request req;
    const ParseStatus status = conn.parser.consume(
        std::string_view(conn.in).substr(off), &used, &req);
    off += used;
    if (status == ParseStatus::kRequest) {
      handle_request(id, std::move(req));
      if (conn.read_closed) break;  // a handler decided to stop reading
      if (conn.paused_read || conn.reload_waiting) break;
      continue;
    }
    if (status == ParseStatus::kNeedMore) break;
    // Protocol-level rejection: answer loudly, then close -- the parser
    // is poisoned and the byte stream has no resynchronization point.
    // Rejected requests still count as requests: responses_* must never
    // exceed the request counter.
    ++stats_.requests;
    const int code = status == ParseStatus::kHeadersTooLarge ? 431
                     : status == ParseStatus::kBodyTooLarge  ? 413
                     : status == ParseStatus::kUnsupported   ? 501
                                                             : 400;
    enqueue_response(id, code, "text/plain", "malformed request\n",
                     /*keep_alive=*/false);
    conn.read_closed = true;
    conn.close_after_flush = true;
    break;
  }
  conn.in.erase(0, off);
}

void Server::handle_request(std::uint64_t id, Request&& req) {
  ++stats_.requests;
  // Route on the path only: the raw target keeps its query string (the
  // parser preserves it for logging), but "/predict?x=y" is /predict.
  std::string_view path(req.target);
  path = path.substr(0, path.find('?'));
  if (path == "/predict") {
    if (req.method != "POST") {
      enqueue_response(id, 405, "text/plain", "use POST /predict\n",
                       req.keep_alive);
      return;
    }
    handle_predict(id, req);
    return;
  }
  if (path == "/healthz") {
    if (req.method != "GET") {
      enqueue_response(id, 405, "text/plain", "use GET /healthz\n",
                       req.keep_alive);
      return;
    }
    enqueue_response(id, 200, "text/plain", "ok\n", req.keep_alive);
    return;
  }
  if (path == "/stats") {
    if (req.method != "GET") {
      enqueue_response(id, 405, "text/plain", "use GET /stats\n",
                       req.keep_alive);
      return;
    }
    enqueue_response(id, 200, "application/json", stats_json(),
                     req.keep_alive);
    return;
  }
  if (path == "/reload") {
    if (req.method != "POST") {
      enqueue_response(id, 405, "text/plain", "use POST /reload\n",
                       req.keep_alive);
      return;
    }
    if (reload_inflight_) {
      ++stats_.reloads_rejected;
      enqueue_response(id, 409, "text/plain", "reload already in flight\n",
                       req.keep_alive);
      return;
    }
    // Body = container path, surrounding whitespace tolerated. The load,
    // CRC check, and flatten all run on the reload worker; the loop only
    // pays for this hand-off (measured below as the reload "stall").
    const auto handoff_begin = std::chrono::steady_clock::now();
    std::string_view path_view(req.body);
    while (!path_view.empty() &&
           (path_view.back() == '\n' || path_view.back() == '\r' ||
            path_view.back() == ' ')) {
      path_view.remove_suffix(1);
    }
    while (!path_view.empty() && path_view.front() == ' ') {
      path_view.remove_prefix(1);
    }
    reload_inflight_ = true;
    conns_.find(id)->second.reload_waiting = true;
    {
      const std::scoped_lock lock(reload_mu_);
      pending_reload_ = ReloadJob{id, req.keep_alive, std::string(path_view)};
    }
    reload_cv_.notify_one();
    const std::uint64_t stall_us = elapsed_us(handoff_begin);
    stats_.reload_stall_us_total += stall_us;
    stats_.reload_stall_us_max =
        std::max(stats_.reload_stall_us_max, stall_us);
    return;
  }
  enqueue_response(id, 404, "text/plain", "unknown target\n", req.keep_alive);
}

void Server::handle_predict(std::uint64_t id, const Request& req) {
  // Admission control: past either watermark this request is shed *now*
  // -- a prompt 503 instead of a seat in a queue whose latency already
  // exceeds what any client should wait for. Shedding never touches the
  // staged columns, so admitted rows are numerically untouched by it.
  if (staged_rows_ >= cfg_.shed_rows_watermark ||
      staged_requests_.size() >= cfg_.shed_requests_watermark) {
    ++stats_.requests_shed;
    enqueue_response(id, 503, "text/plain", "overloaded, retry later\n",
                     req.keep_alive, "Retry-After: 1\r\n");
    return;
  }
  // Pin the batch's model at its first row: a hot swap mid-window changes
  // the *next* batch, never this one.
  if (batch_model_ == nullptr) batch_model_ = slot_->current();
  if (batch_model_ == nullptr) {
    enqueue_response(id, 503, "text/plain", "no model installed\n",
                     req.keep_alive);
    return;
  }
  const std::size_t rows_before = staged_columns_[0].size();
  std::string_view body(req.body);
  bool ok = true;
  std::uint32_t rows = 0;
  std::size_t first_content = body.find_first_not_of(" \t\r\n");
  if (first_content != std::string_view::npos && body[first_content] == '[') {
    std::string error;
    const std::optional<sim::Json> parsed = sim::Json::parse(body, &error);
    if (!parsed.has_value() || !parsed->is_array()) {
      ok = false;
    } else {
      for (const sim::Json& row : parsed->items()) {
        if (!binner_.append_json(row, &staged_columns_)) {
          ok = false;
          break;
        }
        ++rows;
      }
    }
  } else {
    std::size_t pos = 0;
    while (ok && pos < body.size()) {
      std::size_t eol = body.find('\n', pos);
      std::string_view line = body.substr(
          pos, eol == std::string_view::npos ? std::string_view::npos
                                             : eol - pos);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      pos = eol == std::string_view::npos ? body.size() : eol + 1;
      if (line.empty()) continue;  // tolerate blank lines / trailing \n
      if (!binner_.append_csv(line, &staged_columns_)) {
        ok = false;
        break;
      }
      ++rows;
    }
  }
  if (!ok || rows == 0) {
    // Roll the staging columns back so a malformed request contributes
    // nothing to the batch; the connection itself stays healthy (framing
    // was valid), so keep-alive is honored.
    for (auto& col : staged_columns_) col.resize(rows_before);
    enqueue_response(id, 400, "text/plain", "bad feature rows\n",
                     req.keep_alive);
    return;
  }

  StagedRequest staged;
  staged.conn_id = id;
  staged.first_row = staged_rows_;
  staged.rows = rows;
  staged.keep_alive = req.keep_alive;
  staged_requests_.push_back(std::move(staged));
  staged_rows_ += rows;
  stats_.predict_rows += rows;
  conns_.find(id)->second.pending += 1;

  // The flush itself happens at a safe point (settle() / the window
  // timer): callers of handle_request may hold references into conns_,
  // and flushing here would let a full tile close connections under them.
  if (cfg_.batch_window.count() > 0 && !timer_armed_ &&
      staged_rows_ < cfg_.max_batch_rows) {
    batch_timer_.arm_once(cfg_.batch_window);
    timer_armed_ = true;
  }
}

void Server::build_response(std::string* out, int status,
                            std::string_view content_type,
                            std::string_view body, bool keep_alive,
                            std::string_view extra_headers) {
  append_response(out, status, content_type, body, keep_alive, extra_headers);
  if (status < 300) {
    ++stats_.responses_2xx;
  } else if (status < 500) {
    ++stats_.responses_4xx;
  } else {
    ++stats_.responses_5xx;
  }
}

void Server::enqueue_response(std::uint64_t id, int status,
                              std::string_view content_type,
                              std::string_view body, bool keep_alive,
                              std::string_view extra_headers) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  if (conn.pending == 0) {
    build_response(&conn.out, status, content_type, body, keep_alive,
                   extra_headers);
    if (!keep_alive) {
      conn.close_after_flush = true;
      conn.read_closed = true;
    }
    apply_out_watermarks(conn);
    return;
  }
  // Predicts are in flight ahead of this response: give it an ordered
  // slot in the batch so pipelined responses flush in request order.
  StagedRequest staged;
  staged.conn_id = id;
  staged.keep_alive = keep_alive;
  build_response(&staged.immediate, status, content_type, body, keep_alive,
                 extra_headers);
  staged_requests_.push_back(std::move(staged));
  conn.pending += 1;
}

void Server::flush_batch() {
  timer_armed_ = false;
  batch_timer_.disarm();
  if (staged_requests_.empty()) {
    batch_model_.reset();
    return;
  }

  if (staged_rows_ > 0) {
    column_ptrs_.resize(staged_columns_.size());
    batch_out_.resize(staged_rows_);
    // Traversal tiles of at most max_batch_rows. predict_many is per-row
    // independent, so slicing changes nothing numerically -- each row is
    // bit-identical to Model::predict whatever tile it lands in.
    const std::uint64_t tile = std::max<std::uint64_t>(1, cfg_.max_batch_rows);
    for (std::uint64_t off = 0; off < staged_rows_; off += tile) {
      const std::uint64_t rows = std::min(tile, staged_rows_ - off);
      for (std::size_t f = 0; f < staged_columns_.size(); ++f) {
        column_ptrs_[f] = staged_columns_[f].data() + off;
      }
      batch_model_->flat.predict_many(
          column_ptrs_.data(), rows,
          std::span<double>(batch_out_).subspan(off, rows));
      ++stats_.batches;
      const std::size_t bucket = std::min<std::size_t>(
          static_cast<std::size_t>(std::bit_width(rows) - 1),
          stats_.batch_size_hist.size() - 1);
      ++stats_.batch_size_hist[bucket];
    }
  }

  for (const StagedRequest& staged : staged_requests_) {
    auto it = conns_.find(staged.conn_id);
    if (it == conns_.end()) continue;  // connection died while staged
    Connection& conn = it->second;
    if (staged.rows > 0) {
      body_scratch_.clear();
      for (std::uint64_t r = staged.first_row;
           r < staged.first_row + staged.rows; ++r) {
        format_prediction(&body_scratch_, batch_out_[r]);
      }
      header_scratch_.assign("X-Model-Version: ");
      header_scratch_ += std::to_string(batch_model_->version);
      header_scratch_ += "\r\n";
      build_response(&conn.out, 200, "text/plain", body_scratch_,
                     staged.keep_alive, header_scratch_);
    } else {
      conn.out += staged.immediate;  // status class counted at staging
    }
    if (conn.pending > 0) --conn.pending;
    if (!staged.keep_alive) {
      conn.close_after_flush = true;
      conn.read_closed = true;
    }
    apply_out_watermarks(conn);
    dirty_.push_back(staged.conn_id);
  }

  staged_requests_.clear();
  for (auto& col : staged_columns_) col.clear();
  staged_rows_ = 0;
  batch_model_.reset();
}

void Server::apply_out_watermarks(Connection& conn) {
  const std::size_t outstanding = conn.out.size() - conn.out_offset;
  if (outstanding > stats_.out_high_water_bytes) {
    stats_.out_high_water_bytes = outstanding;
  }
  if (!conn.paused_read && outstanding >= cfg_.out_high_watermark) {
    conn.paused_read = true;
    ++stats_.out_buffer_pauses;
  }
}

void Server::pump_output(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_offset,
               conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<std::size_t>(n);
      stats_.bytes_out += static_cast<std::uint64_t>(n);
      conn.last_activity = now_;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_connection(id);
    return;
  }
  if (conn.out_offset >= conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
    if ((conn.close_after_flush || conn.read_closed) && conn.pending == 0) {
      close_connection(id);
      return;
    }
  } else if (conn.out_offset > (std::size_t{1} << 16)) {
    conn.out.erase(0, conn.out_offset);
    conn.out_offset = 0;
  }
  const std::size_t outstanding = conn.out.size() - conn.out_offset;
  if (outstanding > cfg_.out_max_bytes) {
    // The peer pipelines requests but does not read responses, and the
    // paused-read watermark could not stop the backlog (responses already
    // owed when the pause landed). Closing is the bound that keeps one
    // misbehaving peer from growing conn.out without limit.
    ++stats_.out_buffer_closes;
    close_connection(id);
    return;
  }
  if (conn.paused_read && outstanding <= cfg_.out_low_watermark) {
    conn.paused_read = false;
    ++stats_.out_buffer_resumes;
    // Bytes buffered while paused may hold complete requests; parse them
    // now and let settle() flush/pump what they produce.
    process_input(id);
    dirty_.push_back(id);
  }
  update_interest(id);
}

void Server::update_interest(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  const bool want_read = !conn.read_closed && !conn.paused_read;
  const bool want_write = conn.out_offset < conn.out.size();
  if (want_read != conn.want_read || want_write != conn.want_write) {
    poller_.modify(conn.fd, id, want_read, want_write);
    conn.want_read = want_read;
    conn.want_write = want_write;
  }
}

void Server::reap_idle() {
  const auto interval =
      std::max(cfg_.idle_timeout / 4, std::chrono::milliseconds(1));
  if (now_ - last_reap_ < interval) return;
  last_reap_ = now_;
  reap_scratch_.clear();
  for (const auto& [id, conn] : conns_) {
    // In-flight work is not idleness; neither is a backlog still being
    // written (that path is bounded by the out watermarks instead).
    if (conn.pending > 0 || conn.reload_waiting) continue;
    if (conn.out_offset < conn.out.size()) continue;
    if (now_ - conn.last_activity >= cfg_.idle_timeout) {
      reap_scratch_.push_back(id);
    }
  }
  for (const std::uint64_t id : reap_scratch_) {
    ++stats_.idle_reaped;
    close_connection(id);
  }
}

void Server::drain_reload() {
  std::optional<ReloadDone> done;
  {
    const std::scoped_lock lock(reload_mu_);
    done.swap(finished_reload_);
  }
  if (!done.has_value()) return;
  const auto drain_begin = std::chrono::steady_clock::now();
  reload_inflight_ = false;
  if (done->status == gbdt::ModelFileStatus::kOk) {
    ++stats_.reloads;
  } else {
    ++stats_.reloads_rejected;
  }
  auto it = conns_.find(done->conn_id);
  if (it != conns_.end()) {
    it->second.reload_waiting = false;
    if (done->status == gbdt::ModelFileStatus::kOk) {
      body_scratch_.assign("version ");
      body_scratch_ += std::to_string(done->version);
      body_scratch_ += '\n';
      enqueue_response(done->conn_id, 200, "text/plain", body_scratch_,
                       done->keep_alive);
    } else {
      body_scratch_.assign("reload failed: ");
      body_scratch_ += gbdt::model_file_status_name(done->status);
      body_scratch_ += '\n';
      enqueue_response(done->conn_id, 409, "text/plain", body_scratch_,
                       done->keep_alive);
    }
    // The response is in line; requests the connection pipelined behind
    // the reload may now parse (they stay ordered after it).
    process_input(done->conn_id);
    dirty_.push_back(done->conn_id);
  }
  const std::uint64_t stall_us = elapsed_us(drain_begin);
  stats_.reload_stall_us_total += stall_us;
  stats_.reload_stall_us_max = std::max(stats_.reload_stall_us_max, stall_us);
}

void Server::reload_worker_main() {
  std::unique_lock<std::mutex> lock(reload_mu_);
  while (true) {
    reload_cv_.wait(lock, [this] {
      return reload_shutdown_ || pending_reload_.has_value();
    });
    if (reload_shutdown_) return;
    ReloadJob job = std::move(*pending_reload_);
    pending_reload_.reset();
    lock.unlock();
    // The expensive part -- file read, CRC check, FlatEnsemble flatten --
    // runs here, off the event loop. ModelSlot::install_from_file is
    // thread-safe and flattens outside its lock; on failure the slot
    // keeps serving the previous version.
    std::uint64_t version = 0;
    const gbdt::ModelFileStatus status =
        slot_->install_from_file(job.path, &version);
    lock.lock();
    finished_reload_ = ReloadDone{job.conn_id, job.keep_alive, status,
                                  version};
    wake_.notify();
    reload_done_cv_.notify_one();
  }
}

std::string Server::stats_json() const {
  sim::Json j = sim::Json::object();
  j.set("connections_accepted", stats_.connections_accepted);
  j.set("connections_rejected", stats_.connections_rejected);
  j.set("open_connections", std::uint64_t{conns_.size()});
  j.set("requests", stats_.requests);
  j.set("predict_rows", stats_.predict_rows);
  j.set("batches", stats_.batches);
  j.set("bytes_in", stats_.bytes_in);
  j.set("bytes_out", stats_.bytes_out);
  j.set("responses_2xx", stats_.responses_2xx);
  j.set("responses_4xx", stats_.responses_4xx);
  j.set("responses_5xx", stats_.responses_5xx);
  j.set("requests_shed", stats_.requests_shed);
  j.set("reloads", stats_.reloads);
  j.set("reloads_rejected", stats_.reloads_rejected);
  j.set("reload_in_flight", std::uint64_t{reload_inflight_ ? 1u : 0u});
  j.set("reload_stall_us_total", stats_.reload_stall_us_total);
  j.set("reload_stall_us_max", stats_.reload_stall_us_max);
  j.set("out_buffer_pauses", stats_.out_buffer_pauses);
  j.set("out_buffer_resumes", stats_.out_buffer_resumes);
  j.set("out_buffer_closes", stats_.out_buffer_closes);
  j.set("out_high_water_bytes", stats_.out_high_water_bytes);
  j.set("idle_reaped", stats_.idle_reaped);
  j.set("staged_rows", staged_rows_);
  j.set("staged_requests", std::uint64_t{staged_requests_.size()});
  sim::Json hist = sim::Json::array();
  for (const std::uint64_t count : stats_.batch_size_hist) {
    hist.push_back(count);
  }
  j.set("batch_size_hist", std::move(hist));
  j.set("buffer_allocations", pool_.allocations());
  j.set("buffer_acquires", pool_.acquires());
  const auto model = slot_->current();
  j.set("model_version", model == nullptr ? std::uint64_t{0} : model->version);
  return j.dump();
}

}  // namespace booster::serve
