/// \file transport.h
/// \brief Resilient peer-to-peer RPC transport for the cluster backend.
///
/// Each cluster process owns one `Transport`: a listening socket plus a
/// cache of outbound connections keyed by peer rank. The model is
/// symmetric request/response over persistent stream connections:
///
///  - `Call(rank, type, payload, deadline)` sends a request frame and
///    blocks for the matching response (`seq` echo, kFlagResponse). If the
///    connection dies or the frame is lost, Call reconnects with capped
///    backoff and *resends the whole request* under a fresh seq until the
///    deadline expires — so every handler must be idempotent (the cluster
///    protocol makes them so: fetches are pure reads, pushes are keyed by
///    (run, step, sender) and duplicates overwrite/ack). Deadline expiry
///    surfaces `kUnavailable`, the code `RetryTransient` retries.
///  - Incoming request frames are dispatched to the registered handler on
///    the connection's reader thread; the handler replies through a
///    `ReplyFn` bound to that same connection. Handlers may block (a fetch
///    waits until the requested step is published) — each connection has
///    its own reader thread, so one blocked handler never stalls another
///    peer's traffic.
///  - Liveness: `StartHeartbeatTo(rank)` emits one-way kHeartbeat frames;
///    `WatchPeer(rank)` arms a monitor that invokes the death callback
///    when nothing (heartbeat or any other frame) has arrived from that
///    rank within `peer_timeout_s`, or when an identified connection from
///    it hits EOF (the fast path for a SIGKILLed process). The callback
///    decides what death means — the transport only reports it.
///
/// Integrity failures from the frame layer are answered in-band: a request
/// whose payload fails its CRC gets a kError(kDataLoss) response so the
/// caller's retry loop resends; a broken *header* means stream desync and
/// severs the connection (the reconnect path rebuilds it).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "hongtu/common/status.h"
#include "hongtu/net/frame.h"

namespace hongtu {
namespace net {

class Transport {
 public:
  struct Options {
    int rank = -1;                     ///< this process's rank (kIdent)
    double heartbeat_interval_s = 0.05;
    double peer_timeout_s = 2.0;       ///< heartbeat age declaring death
    double connect_deadline_s = 2.0;   ///< per connect() attempt
    double io_deadline_s = 10.0;       ///< per frame write / response read
  };

  /// Sends a response to the request being handled. `Status` non-OK turns
  /// into a kError frame carrying the code + message.
  using ReplyFn = std::function<void(MsgType type, std::string payload)>;
  using ErrorReplyFn = std::function<void(const Status&)>;

  struct Request {
    Frame frame;
    ReplyFn reply;
    ErrorReplyFn reply_error;
  };

  /// Called on a connection reader thread for every inbound request.
  using Handler = std::function<void(Request&&)>;
  /// Called (once per WatchPeer arm) from the monitor or a reader thread
  /// when a watched peer goes quiet or its connection closes. `term` is the
  /// coordinator term stamped on the last frame the closed connection
  /// carried — which incarnation of `rank` it belonged to — and 0 when
  /// unknown (a heartbeat timeout, or no frame carried a term).
  using DeathCallback =
      std::function<void(int rank, const std::string& why, uint64_t term)>;

  explicit Transport(Options opts);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Binds + listens and starts the accept loop. `addr` may use port 0;
  /// `bound_addr()` reports the resolved address.
  Status Listen(const std::string& addr);
  const std::string& bound_addr() const { return bound_addr_; }

  void set_handler(Handler h) { handler_ = std::move(h); }
  void set_death_callback(DeathCallback cb) { on_death_ = std::move(cb); }

  /// Registers/overwrites the dial address for `rank`. A new address
  /// retires the cached connection to the old one. Also lifts FailPeer.
  void SetPeer(int rank, const std::string& addr);
  /// `rank` is verified dead: every in-flight and later Call to it returns
  /// kUnavailable at once, instead of waiting out its deadline, until the
  /// next SetPeer for it.
  void FailPeer(int rank);
  bool HasPeer(int rank) const;

  /// Request/response with reconnect-and-resend. Returns the response
  /// payload, the decoded Status of a kError response, or kUnavailable on
  /// deadline expiry. `deadline_s` < 0 uses Options::io_deadline_s.
  Result<std::string> Call(int rank, MsgType type, std::string payload,
                           double deadline_s = -1.0);

  /// One-way best-effort send (heartbeats, aborts). Never blocks past the
  /// io deadline; a failure only drops the cached connection.
  Status Notify(int rank, MsgType type, std::string payload);

  /// Starts a background thread heartbeating `rank` every
  /// heartbeat_interval_s until Shutdown.
  void StartHeartbeatTo(int rank);

  /// Arms death detection for `rank` (resets its last-contact clock).
  void WatchPeer(int rank);
  /// Disarms death detection (before an intentional kill or shutdown).
  void UnwatchPeer(int rank);
  /// Seconds since any frame arrived from `rank` (+inf if never).
  double SecondsSinceContact(int rank) const;

  /// Drops any cached connection to `rank` (forces a fresh dial next Call;
  /// used after a respawn replaces the peer's address).
  void DropConnection(int rank);

  /// Coordinator-term fencing: every outbound frame (requests, responses,
  /// heartbeats, kIdent) is stamped with the current term at the single
  /// send choke point, so a receiver can reject commands from a stale
  /// coordinator incarnation. Workers adopt the coordinator's advertised
  /// term; the coordinator bumps it once per restart.
  void set_term(uint64_t term) {
    term_.store(term, std::memory_order_relaxed);
  }
  uint64_t term() const { return term_.load(std::memory_order_relaxed); }

  /// Stops all threads and closes all sockets. Idempotent.
  void Shutdown();

  int rank() const { return opts_.rank; }

 private:
  struct Conn;
  struct PendingCall;

  std::shared_ptr<Conn> EnsureConn(int rank, double deadline_abs);
  void StartReader(const std::shared_ptr<Conn>& conn);
  void ReaderLoop(std::shared_ptr<Conn> conn);
  void RetireConn(const std::shared_ptr<Conn>& conn, const Status& why);
  void MonitorLoop();
  void HeartbeatLoop(int rank);
  void TouchContact(int rank);
  void ReportDeath(int rank, const std::string& why, uint64_t term);
  Status SendOnConn(const std::shared_ptr<Conn>& conn, Frame& f);

  Options opts_;
  Handler handler_;
  DeathCallback on_death_;

  int listen_fd_ = -1;
  std::string bound_addr_;
  std::string uds_unlink_path_;  ///< cleaned up on Shutdown
  std::thread accept_thread_;
  std::thread monitor_thread_;
  std::vector<std::thread> heartbeat_threads_;
  std::atomic<bool> stop_{false};
  std::atomic<uint32_t> next_seq_{1};
  std::atomic<uint64_t> term_{0};

  mutable std::mutex mu_;
  std::condition_variable stop_cv_;  ///< wakes sleeper threads on Shutdown
  std::unordered_map<int, std::string> peer_addrs_;
  std::unordered_map<int, std::shared_ptr<Conn>> out_conns_;
  std::unordered_set<int> failed_;  ///< FailPeer'd ranks, until SetPeer
  std::vector<std::shared_ptr<Conn>> conns_;  ///< every live conn (join list)
  std::unordered_map<uint32_t, PendingCall*> pending_;
  struct WatchState {
    double last_contact;
    bool armed;
  };
  std::unordered_map<int, WatchState> watched_;
};

}  // namespace net
}  // namespace hongtu
