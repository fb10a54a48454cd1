// Reliable, ordered, typed messaging over an unreliable frame Transport --
// the retry protocol of the distributed trainer. Per directed peer pair:
//
//   * every data message carries a sequence number (1, 2, ...) and the
//     frame CRC from ipc::HistogramCodec;
//   * the receiver delivers strictly in sequence order: duplicates are
//     dropped, out-of-order frames are parked until the gap fills, and a
//     gap, timeout, or corrupt frame triggers a kNack control frame
//     re-requesting everything from the first missing sequence number;
//   * the sender keeps a bounded window of sent frames and retransmits on
//     nack (re-requests beyond the window mean the protocol lost sync and
//     abort loudly);
//   * liveness is *deadline-based* on the monotonic clock: recv() gives
//     up only when the peer has shown no sign of life -- no frame of any
//     kind, heartbeats included -- for `liveness_timeout`, at which point
//     the caller declares the peer dead (the distributed trainer then
//     re-executes the dead worker's shards). An attempt-count cap remains
//     as a backstop, but the deadline is the contract: a slow link that
//     keeps delivering *something* is never confused with a dead peer,
//     and a dead peer is detected within one liveness window regardless
//     of how many attempts fit into it;
//   * with `heartbeat_interval` > 0, a rank blocked in recv() (and only
//     then -- a rank busy building histograms does not service its
//     channel) periodically sends kHeartbeat control frames to every peer
//     it has talked to, so two ranks blocked on *different* conversations
//     keep each other's liveness deadlines fresh.
//
// Nack and heartbeat frames are themselves unacknowledged (seq 0): a
// lost nack is re-sent on the next timeout, a duplicate nack at worst
// causes a duplicate retransmission (absorbed by the sequence numbers),
// and heartbeats carry no state at all.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "ipc/codec.h"
#include "ipc/transport.h"

namespace booster::ipc {

struct ReliableConfig {
  /// One blocking receive attempt per nack round.
  std::chrono::milliseconds recv_timeout{250};
  /// The liveness deadline: recv() declares the peer dead once it has
  /// seen no frame from it -- data, nack, duplicate, or heartbeat -- for
  /// this long (measured on the monotonic clock from recv() entry,
  /// refreshed by every sign of life). Without heartbeats the deadline
  /// must cover the peer's longest compute phase between messages; with
  /// heartbeat_interval > 0 a blocked-but-alive peer stays fresh and the
  /// deadline can be tightened to a few heartbeat intervals. Time to
  /// detect a dead peer is bounded by liveness_timeout + recv_timeout
  /// (one in-flight attempt finishes before the deadline is checked).
  std::chrono::milliseconds liveness_timeout{10000};
  /// Backstop cap on recv() attempts (one nack round each). 0 disables
  /// the cap (deadline-only). The default is sized so the deadline, not
  /// the count, governs at the default recv_timeout; tests that want an
  /// attempt-counted death (legacy behavior) set it low explicitly.
  std::uint32_t max_attempts = 400;
  /// Heartbeat cadence while blocked in recv(); 0 disables heartbeats
  /// (the default -- fault-injection schedules stay deterministic).
  /// Enable for elastic TCP worlds, where a tight liveness_timeout needs
  /// a sign of life that flows even mid-computation of third ranks.
  std::chrono::milliseconds heartbeat_interval{0};
  /// Sent frames kept per peer for retransmission, bounded by count and
  /// by bytes (shard histograms are the big frames; the protocol is
  /// lock-stepped a few messages deep, so the byte cap trims dead weight
  /// without ever dropping a frame a live peer could still re-request --
  /// a re-request beyond the window aborts loudly, never silently).
  std::uint32_t resend_window = 512;
  std::uint64_t resend_window_bytes = 32ull << 20;
  /// Attempt budget for shutdown-barrier receives (the goodbye handshake):
  /// long enough to heal a live peer's lost tail frames -- each heal
  /// round costs one attempt -- but bounded, because a peer that already
  /// exited leaves nothing to wait for.
  std::uint32_t shutdown_attempts = 16;
};

struct ReliableStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t retransmits = 0;      // frames re-sent on nack
  std::uint64_t nacks_sent = 0;
  std::uint64_t nacks_received = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t corrupt_frames = 0;   // frames failing HistogramCodec checks
  std::uint64_t parked_frames = 0;    // out-of-order frames buffered
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  /// recv() give-ups under the liveness deadline / attempt backstop
  /// (shutdown-barrier receives excluded -- those time out by design).
  std::uint64_t peers_declared_dead = 0;
  /// Milliseconds from recv() entry to the give-up that declared the
  /// last/slowest dead peer: the measured time-to-detect-failure, which
  /// the tests assert against the configured liveness deadline.
  double last_detect_ms = 0.0;
  double max_detect_ms = 0.0;
};

class ReliableChannel {
 public:
  /// Borrows `transport` (not owned). One ReliableChannel per rank,
  /// multiplexing all of that rank's peers; drive it from one thread.
  explicit ReliableChannel(Transport* transport, ReliableConfig cfg = {});

  Transport* transport() { return transport_; }
  const ReliableConfig& config() const { return cfg_; }

  /// Sends one typed message to `dst` (assigns the next sequence number
  /// and records the frame for retransmission).
  void send(std::uint32_t dst, MessageType type,
            std::span<const std::uint8_t> payload);

  /// Receives the next in-order message from `src`. Returns false when
  /// the peer showed no sign of life through cfg.liveness_timeout (or
  /// exhausted the cfg.max_attempts backstop) -- the caller's cue to
  /// declare it dead. With `attempts_override` non-zero the call is
  /// attempt-counted instead (legacy semantics; the shutdown barrier's
  /// bounded wait). Control frames (nacks, heartbeats) from `src` are
  /// handled internally and never surface.
  bool recv(std::uint32_t src, Frame* out, std::uint32_t attempts_override = 0);

  /// Forgets all per-peer protocol state for `rank` (tx window, sequence
  /// numbers, parked frames): the distributed trainer's reset when a new
  /// worker incarnation takes over the rank slot.
  void reset_peer(std::uint32_t rank);

  const ReliableStats& stats() const { return stats_; }

 private:
  struct PeerTx {
    std::uint64_t next_seq = 1;
    std::deque<std::pair<std::uint64_t, std::vector<std::uint8_t>>> window;
    std::uint64_t window_bytes = 0;
  };
  struct PeerRx {
    std::uint64_t expected_seq = 1;
    std::map<std::uint64_t, Frame> parked;  // out-of-order, keyed by seq
  };

  void send_nack(std::uint32_t dst, std::uint64_t from_seq);
  void handle_nack(std::uint32_t src, const Frame& frame);
  /// Sends kHeartbeat to every active peer whose cadence is due.
  void maybe_heartbeat();
  /// Pulls transport frames from src until one data frame is deliverable
  /// or the timeout lapses. Any frame from src -- deliverable or not --
  /// refreshes *last_life.
  RecvStatus pump(std::uint32_t src, Frame* out,
                  std::chrono::milliseconds timeout,
                  std::chrono::steady_clock::time_point* last_life);

  Transport* transport_;
  ReliableConfig cfg_;
  std::vector<PeerTx> tx_;
  std::vector<PeerRx> rx_;
  /// Peers this channel has sent to or received from: the heartbeat
  /// recipients (a rank never talked to gets no sign of life).
  std::vector<std::uint8_t> peer_active_;
  std::vector<std::chrono::steady_clock::time_point> heartbeat_sent_;
  ReliableStats stats_;
};

}  // namespace booster::ipc
