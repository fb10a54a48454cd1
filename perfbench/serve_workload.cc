// serve-iot: an open-loop load generator on one thread sends seeded
// Poisson arrivals of 8-row CSV /predict requests over 16 keep-alive
// connections to a serve::Server (64-tree IoT model) running on its own
// thread. Each request is timed from its scheduled send time, so a stall
// also charges the requests queued behind it. Every served prediction must
// be bitwise equal to Model::predict.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gbdt/model_io.h"
#include "gbdt/trainer.h"
#include "schedule.h"
#include "serve/client.h"
#include "serve/model_slot.h"
#include "serve/server.h"
#include "sim/json.h"
#include "spans.h"
#include "util/check.h"
#include "workloads.h"

namespace perfbench {

using namespace booster;

namespace {

constexpr std::uint32_t kConnections = 16;
constexpr double kLowRate = 500.0;
constexpr double kMidRate = 2000.0;
constexpr double kSloP99Ms = 5.0;
constexpr double kLadderStep = 1.05;  // rungs 5% apart
constexpr int kLadderRungs = 42;      // 2000/s x 1.05^[-42, 42]: 260..15.6k/s
// Split seed of the served model's data (see set_up()).
constexpr std::uint64_t kServedDataSplit = 1;

double thread_cpu_s(pthread_t thread) {
  clockid_t cid;
  timespec ts{};
  if (pthread_getcpuclockid(thread, &cid) != 0 ||
      clock_gettime(cid, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Counters from GET /stats; a load step reports their deltas.
struct ServerCounters {
  double requests = 0, predict_rows = 0, batches = 0, bytes_in = 0,
         bytes_out = 0, shed = 0;
};

ServerCounters fetch_counters(serve::BlockingClient& client) {
  ServerCounters c;
  serve::Response resp;
  if (!client.request("GET", "/stats", "", &resp) || resp.status != 200) {
    return c;
  }
  std::string error;
  const std::optional<sim::Json> j = sim::Json::parse(resp.body, &error);
  if (!j) return c;
  const auto get = [&](const char* key) {
    const sim::Json* v = j->find(key);
    return v == nullptr ? 0.0 : v->as_double();
  };
  c.requests = get("requests");
  c.predict_rows = get("predict_rows");
  c.batches = get("batches");
  c.bytes_in = get("bytes_in");
  c.bytes_out = get("bytes_out");
  c.shed = get("requests_shed");
  return c;
}

/// One load step's outcome. Latency is from the scheduled send time; a
/// shed, failed or mismatched request is a miss (infinite latency).
struct StepResult {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  // generator lateness (validity check)
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;      // non-200/503 status, lost or timed out
  std::uint64_t mismatched = 0;  // a prediction differs from Model::predict
  std::uint64_t backlog = 0;     // requests due but unsent at the last arrival
  double wall_s = 0.0;

  std::uint64_t missed() const { return shed + failed + mismatched; }
  /// p99 within the SLO, nothing missed, and no backlog beyond one request
  /// per connection when the last arrival was due.
  bool meets_slo() const {
    return missed() == 0 && latency_ms.size() >= 100 &&
           percentile(latency_ms, 0.99) <= kSloP99Ms && backlog <= kConnections;
  }
};

/// The open-loop generator: one thread, keep-alive connections, responses
/// parsed and checked as they arrive. It busy-polls (epoll_wait with a zero
/// timeout) instead of sleeping until the next arrival: on a virtual
/// machine a sleeping thread's wake-up can be milliseconds late, which
/// would charge the generator's own lateness to the server.
class Generator {
 public:
  Generator(std::uint16_t port, const gbdt::Dataset& holdout_raw,
            const std::vector<double>& expected)
      : expected_(expected), served_(expected.size(), kNotServed) {
    const std::uint64_t n = holdout_raw.num_records() / kRowsPerRequest;
    for (std::uint64_t i = 0; i < n; ++i) {
      requests_.push_back(
          predict_request(holdout_raw, i * kRowsPerRequest, kRowsPerRequest));
    }
    epoll_ = ::epoll_create1(EPOLL_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    for (std::uint32_t c = 0; c < kConnections; ++c) {
      Conn conn;
      conn.fd = connect_loopback(port);
      BOOSTER_CHECK_MSG(conn.fd >= 0, "load generator failed to connect");
      ev.data.u64 = c;
      ::epoll_ctl(epoll_, EPOLL_CTL_ADD, conn.fd, &ev);
      conns_.push_back(std::move(conn));
    }
  }

  ~Generator() {
    for (const Conn& c : conns_) ::close(c.fd);
    ::close(epoll_);
  }

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Open loop: sends at `schedule` offsets (ns from the step start).
  StepResult open_loop(const std::vector<std::int64_t>& schedule) {
    return run(schedule, 0.0);
  }
  /// Closed loop at saturation: every connection sends its next request as
  /// soon as the previous response arrives, for `seconds`.
  StepResult closed_loop(double seconds) { return run({}, seconds); }

  /// Served predictions per held-out row (NaN where never served).
  const std::vector<double>& served() const { return served_; }

 private:
  static constexpr double kNotServed = std::numeric_limits<double>::quiet_NaN();

  struct Conn {
    int fd = -1;
    std::string rx;
    bool busy = false;
    std::int64_t idle_since = 0;
    std::int64_t due = 0;
    std::uint64_t request = 0;
  };

  void send_on(Conn& c, std::int64_t due, std::int64_t now, StepResult* r,
               bool closed) {
    c.request = next_request_++ % requests_.size();
    c.due = due;
    c.busy = true;
    if (!closed) {
      r->late_ms.push_back(
          static_cast<double>(now - std::max(due, c.idle_since)) * 1e-6);
    }
    const std::string& bytes = requests_[c.request];
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(c.fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        c.busy = false;
        r->failed += 1;
        return;
      }
      off += static_cast<std::size_t>(n);
    }
    ++outstanding_;
  }

  // Parses every complete response buffered on `c`.
  void drain(Conn& c, std::int64_t now, StepResult* r) {
    for (;;) {
      const std::size_t head_end = c.rx.find("\r\n\r\n");
      if (head_end == std::string::npos) return;
      const std::size_t cl = c.rx.find("Content-Length: ");
      if (cl == std::string::npos || cl > head_end) return;
      const std::size_t len =
          std::strtoull(c.rx.c_str() + cl + 16, nullptr, 10);
      const std::size_t total = head_end + 4 + len;
      if (c.rx.size() < total) return;
      const int status = std::atoi(c.rx.c_str() + 9);  // "HTTP/1.1 200"
      const std::string_view body(c.rx.data() + head_end + 4, len);
      const std::uint64_t first = c.request * kRowsPerRequest;
      bool good = false;
      if (status == 200 && serve::parse_predictions(body, &parsed_) &&
          parsed_.size() == kRowsPerRequest) {
        good = true;
        for (std::uint32_t i = 0; i < kRowsPerRequest; ++i) {
          good = good && parsed_[i] == expected_[first + i];
          served_[first + i] = parsed_[i];
        }
        if (good) {
          ++r->ok;
          r->latency_ms.push_back(static_cast<double>(now - c.due) * 1e-6);
        } else {
          ++r->mismatched;
        }
      } else if (status == 503) {
        ++r->shed;
      } else {
        ++r->failed;
      }
      if (!good) {
        r->latency_ms.push_back(std::numeric_limits<double>::infinity());
      }
      c.rx.erase(0, total);
      c.busy = false;
      c.idle_since = now;
      --outstanding_;
    }
  }

  StepResult run(const std::vector<std::int64_t>& schedule,
                 double closed_seconds) {
    const bool closed = schedule.empty();
    StepResult r;
    const std::int64_t start = now_ns() + 1'000'000;
    const std::int64_t end_of_offer =
        start + (closed ? static_cast<std::int64_t>(closed_seconds * 1e9)
                        : schedule.back());
    const std::int64_t deadline = end_of_offer + 2'000'000'000;
    for (Conn& c : conns_) c.idle_since = start;
    std::size_t next = 0;
    std::deque<std::int64_t> due;
    outstanding_ = 0;
    epoll_event events[kConnections];
    char buf[65536];
    for (;;) {
      std::int64_t now = now_ns();
      if (closed) {
        for (Conn& c : conns_) {
          if (!c.busy && now >= start && now < end_of_offer) {
            send_on(c, now, now, &r, true);
          }
        }
      } else {
        while (next < schedule.size() && start + schedule[next] <= now) {
          due.push_back(start + schedule[next++]);
          if (next == schedule.size()) r.backlog = due.size();
        }
        for (Conn& c : conns_) {
          if (due.empty()) break;
          if (c.busy) continue;
          send_on(c, due.front(), now, &r, false);
          due.pop_front();
        }
      }
      const bool offered = closed ? now >= end_of_offer
                                  : next == schedule.size() && due.empty();
      if (offered && outstanding_ == 0) break;
      if (now > deadline) {
        // Lost or stuck requests count as failures; the step is over.
        r.failed += outstanding_ + due.size() + (schedule.size() - next);
        for (std::uint64_t i = 0; i < outstanding_ + due.size(); ++i) {
          r.latency_ms.push_back(std::numeric_limits<double>::infinity());
        }
        break;
      }
      const int n = ::epoll_wait(epoll_, events, kConnections, 0);
      now = now_ns();
      for (int i = 0; i < n; ++i) {
        Conn& c = conns_[events[i].data.u64];
        for (;;) {
          const ssize_t got = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
          if (got <= 0) break;
          c.rx.append(buf, static_cast<std::size_t>(got));
        }
        drain(c, now, &r);
      }
    }
    r.wall_s = seconds_between(start, now_ns());
    return r;
  }

  std::vector<std::string> requests_;
  const std::vector<double>& expected_;
  std::vector<double> served_;
  std::vector<double> parsed_;
  std::vector<Conn> conns_;
  std::uint64_t next_request_ = 0;
  std::uint64_t outstanding_ = 0;
  int epoll_ = -1;
};

/// One set-up: data, the trained 64-tree model, and a running server.
struct Rig {
  Prepared data;
  std::vector<double> expected;
  std::uint64_t digest = 0;
  double train_s = 0.0;
  gbdt::HotPathStats hot_path;
  std::unique_ptr<gbdt::Model> model_copy;  // local scoring reference
  serve::ModelSlot slot;
  std::unique_ptr<serve::Server> server;
  std::thread loop;  // runs server->run(); joined by the destructor

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    if (server) {
      server->stop();
      loop.join();
    }
  }
};

gbdt::TrainerConfig served_model_config() {
  gbdt::TrainerConfig cfg;
  cfg.num_trees = 64;
  cfg.max_depth = 6;
  // One thread: on 20k rows the default pool spends most of its time in
  // fork/join wake-ups, and its train_s swung 1.0-4.0 s with host load
  // (one thread: 1.8-2.0 s). Thread-pool changes show on train-*.
  cfg.num_threads = 1;
  cfg.loss = workloads::spec_by_name("IoT").loss;
  return cfg;
}

std::unique_ptr<Rig> set_up() {
  auto rig = std::make_unique<Rig>();
  // The served model and its held-out rows do not depend on the workload
  // seed, which drives the arrival schedules instead: a 64-tree model on
  // 20k rows scored 4096 held-out rows with a log loss anywhere in
  // 0.153-0.173 across splits, more than the metric's bound.
  rig->data = prepare(workloads::spec_by_name("IoT"), 20'000, 4096,
                      kServedDataSplit);
  const gbdt::TrainerConfig cfg = served_model_config();
  const std::int64_t t0 = now_ns();
  gbdt::TrainResult trained = gbdt::Trainer(cfg).train(rig->data.train);
  rig->train_s = seconds_between(t0, now_ns());
  rig->hot_path = trained.hot_path;
  rig->digest = model_digest(trained.model);
  rig->expected = predict_all(trained.model, rig->data.holdout);
  // The slot takes the model; a copy stays local for the traced
  // in-process request path.
  std::stringstream text;
  gbdt::save_model(trained.model, text);
  rig->model_copy = std::make_unique<gbdt::Model>(gbdt::load_model(text));
  rig->slot.install(std::move(trained.model));
  rig->server = std::make_unique<serve::Server>(serve::ServerConfig{},
                                                &rig->slot, rig->data.train);
  serve::Server* server = rig->server.get();
  rig->loop = std::thread([server] { server->run(); });
  return rig;
}

std::vector<std::int64_t> schedule_for(std::uint64_t seed, std::uint64_t step,
                                       double rate, double seconds) {
  return poisson_schedule(mix_seed(seed, step), rate, seconds);
}

}  // namespace

void run_serve(const Options& opt, Report* report) {
  std::vector<double> setup_s;
  std::vector<double> train_s;
  std::vector<double> binning_s;
  std::unique_ptr<Rig> rig;
  std::uint64_t first_digest = 0;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const std::int64_t t0 = now_ns();
    rig = set_up();
    setup_s.push_back(seconds_between(t0, now_ns()));
    train_s.push_back(rig->train_s);
    binning_s.push_back(rig->data.binning_s);
    if (i == 0) first_digest = rig->digest;
    report->attempt(rig->digest == first_digest,
                    "model digest differs across repeats");
  }
  report->e2e("setup_s", median(setup_s), setup_s.size());
  report->e2e("train_s", median(train_s), train_s.size());

  Generator gen(rig->server->port(), rig->data.holdout_raw, rig->expected);
  serve::BlockingClient stats_client;
  BOOSTER_CHECK_MSG(stats_client.connect(rig->server->port()),
                    "stats client failed to connect");
  const pthread_t server_thread = rig->loop.native_handle();
  const double s = opt.seconds;

  // Warm-up (connections, buffer pools, caches); not reported.
  gen.open_loop(schedule_for(opt.seed, 0, kMidRate, 0.05 * s));

  const auto count = [&](const StepResult& r) {
    report->count(r.ok, r.missed(),
                  "request shed, failed or mismatched at a fixed rate");
  };

  const StepResult low =
      gen.open_loop(schedule_for(opt.seed, 1, kLowRate, 0.25 * s));
  count(low);

  const ServerCounters before = fetch_counters(stats_client);
  const double cpu0 = thread_cpu_s(server_thread);
  const StepResult mid =
      gen.open_loop(schedule_for(opt.seed, 2, kMidRate, 0.25 * s));
  const double loop_cpu_s = thread_cpu_s(server_thread) - cpu0;
  const ServerCounters after = fetch_counters(stats_client);
  count(mid);

  const StepResult sat = gen.closed_loop(0.25 * s);
  count(sat);

  // Highest rung of the 5% ladder that meets the SLO (binary search from
  // the mid rate's verdict; the bottom rung is assumed to pass). Shed or
  // failed requests here are SLO misses, not failures; a mismatch still
  // fails the run.
  int lo = mid.meets_slo() ? 0 : -kLadderRungs;
  int hi = mid.meets_slo() ? kLadderRungs + 1 : 0;
  std::uint64_t probe = 10;
  while (hi - lo > 1) {
    const int m = lo + (hi - lo) / 2;
    const double rate = kMidRate * std::pow(kLadderStep, m);
    const double secs = std::max(0.25, 1500.0 / rate);
    const StepResult r =
        gen.open_loop(schedule_for(opt.seed, probe++, rate, secs));
    report->count(0, r.mismatched, "mismatched prediction on the ladder");
    (r.meets_slo() ? lo : hi) = m;
  }
  const double max_qps = kMidRate * std::pow(kLadderStep, lo);

  report->e2e("predict_rows_per_s",
              static_cast<double>(sat.ok * kRowsPerRequest) / sat.wall_s,
              sat.ok);

  // Held-out log loss from the predictions the server returned.
  bool covered = true;
  for (const double v : gen.served()) covered = covered && !std::isnan(v);
  report->gate(covered, "some held-out rows were never served");
  report->e2e("holdout_logloss", logloss(gen.served(), rig->data.holdout_raw),
              gen.served().size());

  report->extra("p50_ms_low", percentile(low.latency_ms, 0.5), "ms",
                low.latency_ms.size());
  report->extra("p99_ms_low", percentile(low.latency_ms, 0.99), "ms",
                low.latency_ms.size());
  report->extra("p50_ms_mid", percentile(mid.latency_ms, 0.5), "ms",
                mid.latency_ms.size());
  report->extra("p99_ms_mid", percentile(mid.latency_ms, 0.99), "ms",
                mid.latency_ms.size());
  report->extra("max_qps_slo", max_qps, "1/s");

  if (opt.traced) {
    const double reqs = after.requests - before.requests - 1;  // minus /stats
    const double batches = after.batches - before.batches;
    const double rows_mean =
        batches > 0 ? (after.predict_rows - before.predict_rows) / batches : 0;
    report->layer("serve.batch.rows_mean", rows_mean);
    report->layer("serve.wire.bytes_in_per_req",
                  (after.bytes_in - before.bytes_in) / reqs);
    report->layer("serve.wire.bytes_out_per_req",
                  (after.bytes_out - before.bytes_out) / reqs);
    report->layer("serve.admission.shed", after.shed - before.shed);
    report->layer("serve.gen.late_p99_ms", percentile(mid.late_ms, 0.99),
                  mid.late_ms.size());
    const double cpu_us_per_req = loop_cpu_s * 1e6 / reqs;
    report->layer("serve.loop.cpu_us_per_req", cpu_us_per_req);
    report->layer("serve.loop.busy_share", loop_cpu_s / mid.wall_s);

    // The loop's stages, timed in-process on the same bytes at the batch
    // size the server formed.
    const std::uint32_t per_batch = static_cast<std::uint32_t>(
        std::max(1.0, std::round(rows_mean / kRowsPerRequest)));
    RequestPath path(*rig->model_copy, rig->data.train, rig->data.holdout_raw,
                     rig->expected, per_batch);
    path.run(0.05 * s);
    report->attempt(path.result().mismatches == 0,
                    "in-process prediction differs from Model::predict");
    const auto totals = totals_by_name(SpanRecorder::global().spans());
    double stage_s = 0.0;
    for (const char* name : {"serve.http.parse", "serve.row_binner",
                             "serve.predict", "serve.http.respond"}) {
      const auto it = totals.find(name);
      if (it != totals.end()) stage_s += it->second.total_s;
    }
    report_serve_stages(path.result(), report);
    // The served model's training, split by step like train-*'s.
    report->layer("gbdt.binning.s", median(binning_s), binning_s.size());
    report->layer("gbdt.cold_train.s", train_s.front());
    report->layer("gbdt.hist_pool.allocations",
                  static_cast<double>(rig->hot_path.histogram_allocations));
    report->layer("util.thread_pool.threads", rig->hot_path.threads);
    report_training_layers(served_model_config(), rig->data.train,
                           median(train_s), rig->digest, report);
    report->layer("serve.loop.unattributed_us_per_req",
                  cpu_us_per_req -
                      stage_s * 1e6 /
                          static_cast<double>(path.result().requests));
  }
  report->note("threads", "server loop 1, generator 1");
  report->e2e("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
