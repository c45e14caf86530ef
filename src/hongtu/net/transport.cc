#include "hongtu/net/transport.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <limits>

#include "hongtu/common/wire.h"
#include "hongtu/net/socket.h"

namespace hongtu {
namespace net {

namespace {
/// Accept poll granularity: bounds Shutdown latency without a racy
/// cross-thread close of the listening fd.
constexpr double kAcceptTickSeconds = 0.25;
constexpr double kMonitorTickSeconds = 0.1;
constexpr double kResendPauseSeconds = 0.01;
constexpr double kDialBackoffBaseSeconds = 0.05;
constexpr double kDialBackoffCapSeconds = 0.5;

/// kError response payloads carry a Status: {code u32, message str}.
std::string EncodeStatusPayload(const Status& st) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(static_cast<int8_t>(st.code())));
  w.Str(st.message());
  return w.Take();
}

Status DecodeStatusPayload(const std::string& payload) {
  WireReader r(payload);
  auto code = r.U32();
  auto msg = r.Str();
  if (!code.ok() || !msg.ok()) {
    return Status::DataLoss("malformed kError payload");
  }
  return Status(static_cast<StatusCode>(code.ValueOrDie()),
                "remote: " + msg.ValueOrDie());
}

}  // namespace

struct Transport::Conn {
  int fd = -1;
  std::atomic<int> peer_rank{-1};  ///< learned from kIdent / frame headers
  std::atomic<uint64_t> peer_term{0};  ///< term of the last frame received
  bool outbound = false;
  int dial_rank = -1;  ///< outbound only: the rank this conn was dialed for
  std::mutex write_mu;
  std::thread reader;
  std::atomic<bool> dead{false};
  std::atomic<bool> reader_done{false};

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

struct Transport::PendingCall {
  std::condition_variable cv;
  bool done = false;
  Status st = Status::OK();
  Frame resp;
  const Conn* conn = nullptr;
};

Transport::Transport(Options opts) : opts_(std::move(opts)) {}

Transport::~Transport() { Shutdown(); }

Status Transport::Listen(const std::string& addr) {
  std::string bound;
  HT_ASSIGN_OR_RETURN(listen_fd_, ListenOn(addr, &bound));
  bound_addr_ = bound;
  if (bound.rfind("uds:", 0) == 0) uds_unlink_path_ = bound.substr(4);
  accept_thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      auto r = AcceptOn(listen_fd_, kAcceptTickSeconds);
      if (!r.ok()) continue;  // deadline tick / injected refusal / EINTR
      auto conn = std::make_shared<Conn>();
      conn->fd = r.ValueOrDie();
      conn->outbound = false;
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (stop_.load(std::memory_order_relaxed)) {
          ::close(conn->fd);
          conn->fd = -1;
          return;
        }
        conns_.push_back(conn);
        StartReader(conn);
      }
    }
  });
  monitor_thread_ = std::thread([this] { MonitorLoop(); });
  return Status::OK();
}

void Transport::SetPeer(int rank, const std::string& addr) {
  std::shared_ptr<Conn> stale;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = peer_addrs_.find(rank);
    auto conn = out_conns_.find(rank);
    if (it != peer_addrs_.end() && it->second != addr &&
        conn != out_conns_.end()) {
      stale = conn->second;
    }
    peer_addrs_[rank] = addr;
    failed_.erase(rank);
  }
  // A connection to the replaced address must not carry later calls.
  if (stale) RetireConn(stale, Status::Unavailable("peer address changed"));
}

void Transport::FailPeer(int rank) {
  std::lock_guard<std::mutex> lk(mu_);
  failed_.insert(rank);
  // Under mu_, as in RetireConn. Each blocked Call and dial backoff
  // re-checks failed_ on waking.
  for (auto& [seq, pc] : pending_) pc->cv.notify_all();
  stop_cv_.notify_all();
}

bool Transport::HasPeer(int rank) const {
  std::lock_guard<std::mutex> lk(mu_);
  return peer_addrs_.count(rank) != 0;
}

void Transport::StartReader(const std::shared_ptr<Conn>& conn) {
  // Caller holds mu_, under which the monitor reaps finished readers.
  conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
}

std::shared_ptr<Transport::Conn> Transport::EnsureConn(int rank,
                                                       double deadline_abs) {
  double backoff = kDialBackoffBaseSeconds;
  for (;;) {
    std::string addr;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stop_.load(std::memory_order_relaxed) || failed_.count(rank) != 0) {
        return nullptr;
      }
      auto it = out_conns_.find(rank);
      if (it != out_conns_.end() && !it->second->dead.load()) {
        return it->second;
      }
      auto ait = peer_addrs_.find(rank);
      if (ait == peer_addrs_.end()) return nullptr;  // no address: permanent
      addr = ait->second;
    }
    const double left = deadline_abs - MonotonicSeconds();
    if (left <= 0) return nullptr;
    auto fdr = ConnectTo(
        addr, std::min(left, opts_.connect_deadline_s));
    if (fdr.ok()) {
      auto conn = std::make_shared<Conn>();
      conn->fd = fdr.ValueOrDie();
      conn->outbound = true;
      conn->dial_rank = rank;
      conn->peer_rank.store(rank);
      // Identify ourselves so the peer's death detector can attribute this
      // connection (and its eventual EOF) to our rank.
      Frame ident;
      ident.type = MsgType::kIdent;
      ident.src_rank = opts_.rank;
      ident.term = term_.load(std::memory_order_relaxed);
      const Status ws = WriteFrame(conn->fd, ident, opts_.io_deadline_s);
      if (ws.ok()) {
        bool raced = false;
        {
          std::lock_guard<std::mutex> lk(mu_);
          if (stop_.load(std::memory_order_relaxed)) {
            ::close(conn->fd);
            conn->fd = -1;
            return nullptr;
          }
          auto it = out_conns_.find(rank);
          auto ait = peer_addrs_.find(rank);
          if (it != out_conns_.end() && !it->second->dead.load()) {
            raced = true;  // another caller dialed first; use theirs
          } else if (ait == peer_addrs_.end() || ait->second != addr) {
            raced = true;  // redirected (SetPeer) while dialing: redial
          } else {
            out_conns_[rank] = conn;
            conns_.push_back(conn);
            StartReader(conn);
          }
        }
        if (raced) {
          ::close(conn->fd);
          conn->fd = -1;
          continue;
        }
        return conn;
      }
      ::close(conn->fd);
      conn->fd = -1;
    }
    // Peer not up (yet): capped exponential backoff, interruptible.
    {
      std::unique_lock<std::mutex> lk(mu_);
      stop_cv_.wait_for(lk, std::chrono::duration<double>(backoff), [&] {
        return stop_.load() || failed_.count(rank) != 0;
      });
      if (stop_.load()) return nullptr;  // FailPeer: the loop head returns
    }
    backoff = std::min(backoff * 2, kDialBackoffCapSeconds);
  }
}

Status Transport::SendOnConn(const std::shared_ptr<Conn>& conn, Frame& f) {
  f.term = term_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(conn->write_mu);
  if (conn->dead.load()) return Status::Unavailable("connection retired");
  return WriteFrame(conn->fd, f, opts_.io_deadline_s);
}

void Transport::RetireConn(const std::shared_ptr<Conn>& conn,
                           const Status& why) {
  std::vector<PendingCall*> to_fail;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (conn->dead.exchange(true)) return;
    ::shutdown(conn->fd, SHUT_RDWR);  // wakes the reader's blocking poll
    const int rank = conn->dial_rank;
    if (conn->outbound) {
      auto it = out_conns_.find(rank);
      if (it != out_conns_.end() && it->second == conn) out_conns_.erase(it);
    }
    for (auto& [seq, pc] : pending_) {
      if (pc->conn == conn.get() && !pc->done) to_fail.push_back(pc);
    }
    // Notified under mu_: the caller destroys its PendingCall as soon as it
    // sees `done` under mu_, so a notify after unlock could touch a dead cv.
    for (PendingCall* pc : to_fail) {
      pc->done = true;
      pc->st = Status::Unavailable("connection lost: " + why.message());
      pc->cv.notify_all();
    }
  }
}

void Transport::ReaderLoop(std::shared_ptr<Conn> conn) {
  Status exit_st = Status::OK();
  for (;;) {
    Frame f;
    bool dropped = false;
    Status st = ReadFrame(conn->fd, &f, /*deadline_s=*/-1.0, &dropped);
    if (stop_.load(std::memory_order_relaxed) || conn->dead.load()) break;
    if (st.IsDataLoss()) {
      // Intact header, corrupt payload: answer in-band and stay framed.
      if (f.is_response()) {
        std::lock_guard<std::mutex> lk(mu_);  // see RetireConn
        auto it = pending_.find(f.seq);
        if (it != pending_.end() && !it->second->done) {
          it->second->done = true;
          it->second->st = st;
          it->second->cv.notify_all();
        }
      } else {
        Frame err;
        err.type = MsgType::kError;
        err.flags = kFlagResponse;
        err.src_rank = opts_.rank;
        err.seq = f.seq;
        err.payload = EncodeStatusPayload(st);
        (void)SendOnConn(conn, err);
      }
      continue;
    }
    if (!st.ok()) {  // EOF, disconnect, or header desync: sever
      exit_st = st;
      break;
    }
    if (dropped) continue;
    if (f.src_rank >= 0) {
      conn->peer_rank.store(f.src_rank, std::memory_order_relaxed);
      TouchContact(f.src_rank);
    }
    if (f.term != 0) conn->peer_term.store(f.term, std::memory_order_relaxed);
    if (f.type == MsgType::kIdent || f.type == MsgType::kHeartbeat) continue;
    if (f.is_response()) {
      std::lock_guard<std::mutex> lk(mu_);  // see RetireConn
      auto it = pending_.find(f.seq);
      if (it != pending_.end() && !it->second->done) {
        it->second->done = true;
        it->second->resp = std::move(f);
        it->second->cv.notify_all();
      }
      continue;
    }
    if (!handler_) continue;
    const uint32_t seq = f.seq;
    Request req;
    req.frame = std::move(f);
    req.reply = [this, conn, seq](MsgType type, std::string payload) {
      Frame resp;
      resp.type = type;
      resp.flags = kFlagResponse;
      resp.src_rank = opts_.rank;
      resp.seq = seq;
      resp.payload = std::move(payload);
      const Status ws = SendOnConn(conn, resp);
      if (!ws.ok() && !ws.IsTransient()) RetireConn(conn, ws);
    };
    req.reply_error = [this, conn, seq](const Status& est) {
      Frame resp;
      resp.type = MsgType::kError;
      resp.flags = kFlagResponse;
      resp.src_rank = opts_.rank;
      resp.seq = seq;
      resp.payload = EncodeStatusPayload(est);
      (void)SendOnConn(conn, resp);
    };
    handler_(std::move(req));
  }
  RetireConn(conn, exit_st);
  // Fast-path death: an identified connection from a watched peer hit EOF and
  // no other one to or from that rank is open at the far end. A dead process
  // has hung up all of its sockets, even those whose reader is in a handler.
  const int rank = conn->peer_rank.load();
  bool other_live = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& c : conns_) {
      if (c == conn || c->dead.load() || c->peer_rank.load() != rank) continue;
      pollfd p{c->fd, POLLRDHUP, 0};
      other_live |= ::poll(&p, 1, 0) == 0;
    }
  }
  if (!stop_.load(std::memory_order_relaxed) && rank >= 0 && !other_live) {
    ReportDeath(rank,
                "connection closed (" +
                    (exit_st.ok() ? std::string("eof") : exit_st.message()) +
                    ")",
                conn->peer_term.load(std::memory_order_relaxed));
  }
  conn->reader_done.store(true);
}

Result<std::string> Transport::Call(int rank, MsgType type,
                                    std::string payload, double deadline_s) {
  if (deadline_s < 0) deadline_s = opts_.io_deadline_s;
  const double deadline_abs = MonotonicSeconds() + deadline_s;
  const auto deadline_tp =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(deadline_s));
  Status last = Status::Unavailable("peer unreachable");
  const auto dead = [&] { return failed_.count(rank) != 0; };  // under mu_
  for (;;) {
    if (stop_.load()) return Status::Unavailable("transport shutdown");
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (dead()) {
        return Status::Unavailable("rank " + std::to_string(rank) +
                                   " verified dead (" + MsgTypeName(type) +
                                   ")");
      }
    }
    if (MonotonicSeconds() >= deadline_abs) {
      return Status::Unavailable(
          "rpc deadline expired calling rank " + std::to_string(rank) +
          " (" + MsgTypeName(type) + "): " + last.message());
    }
    std::shared_ptr<Conn> conn = EnsureConn(rank, deadline_abs);
    if (conn == nullptr) {
      bool known;
      {
        std::lock_guard<std::mutex> lk(mu_);
        known = peer_addrs_.count(rank) != 0;
      }
      if (!known) {
        return Status::Invalid("no address registered for rank " +
                               std::to_string(rank));
      }
      continue;  // deadline check at loop head reports expiry
    }
    const uint32_t seq = next_seq_.fetch_add(1);
    Frame req;
    req.type = type;
    req.src_rank = opts_.rank;
    req.seq = seq;
    req.payload = payload;  // copied: the request may be resent
    PendingCall pc;
    pc.conn = conn.get();
    {
      std::lock_guard<std::mutex> lk(mu_);
      pending_[seq] = &pc;
    }
    auto unregister = [&] {
      std::lock_guard<std::mutex> lk(mu_);
      pending_.erase(seq);
    };
    const Status ws = SendOnConn(conn, req);
    if (!ws.ok()) {
      unregister();
      RetireConn(conn, ws);
      if (!ws.IsTransient()) return ws;
      last = ws;
      std::unique_lock<std::mutex> lk(mu_);
      stop_cv_.wait_for(lk,
                        std::chrono::duration<double>(kResendPauseSeconds));
      continue;
    }
    bool done;
    {
      std::unique_lock<std::mutex> lk(mu_);
      pc.cv.wait_until(lk, deadline_tp,
                       [&] { return pc.done || stop_.load() || dead(); });
      done = pc.done;
      pending_.erase(seq);
    }
    if (stop_.load() && !done) {
      return Status::Unavailable("transport shutdown");
    }
    // Woken early without a response: FailPeer, reported at the loop head.
    if (!done && std::chrono::steady_clock::now() < deadline_tp) continue;
    if (!done) {
      // The peer never answered inside the budget: declare the connection
      // suspect so the next caller redials rather than queueing behind it.
      RetireConn(conn, Status::Unavailable("response timed out"));
      return Status::Unavailable(
          "rpc deadline expired calling rank " + std::to_string(rank) +
          " (" + MsgTypeName(type) + "): no response");
    }
    if (!pc.st.ok()) {  // connection died or response payload corrupt
      if (!pc.st.IsTransient()) return pc.st;
      last = pc.st;
      continue;
    }
    if (pc.resp.type == MsgType::kError) {
      Status rs = DecodeStatusPayload(pc.resp.payload);
      if (rs.IsTransient()) {  // e.g. request arrived corrupt: resend
        last = rs;
        std::unique_lock<std::mutex> lk(mu_);
        stop_cv_.wait_for(lk,
                          std::chrono::duration<double>(kResendPauseSeconds));
        continue;
      }
      return rs;
    }
    return std::move(pc.resp.payload);
  }
}

Status Transport::Notify(int rank, MsgType type, std::string payload) {
  const double deadline_abs = MonotonicSeconds() + opts_.connect_deadline_s;
  std::shared_ptr<Conn> conn = EnsureConn(rank, deadline_abs);
  if (conn == nullptr) {
    return Status::Unavailable("notify: rank " + std::to_string(rank) +
                               " unreachable");
  }
  Frame f;
  f.type = type;
  f.src_rank = opts_.rank;
  f.seq = next_seq_.fetch_add(1);
  f.payload = std::move(payload);
  const Status ws = SendOnConn(conn, f);
  if (!ws.ok()) RetireConn(conn, ws);
  return ws;
}

void Transport::StartHeartbeatTo(int rank) {
  std::lock_guard<std::mutex> lk(mu_);
  heartbeat_threads_.emplace_back([this, rank] { HeartbeatLoop(rank); });
}

void Transport::HeartbeatLoop(int rank) {
  while (!stop_.load()) {
    (void)Notify(rank, MsgType::kHeartbeat, "");
    std::unique_lock<std::mutex> lk(mu_);
    stop_cv_.wait_for(
        lk, std::chrono::duration<double>(opts_.heartbeat_interval_s),
        [this] { return stop_.load(); });
  }
}

void Transport::WatchPeer(int rank) {
  std::lock_guard<std::mutex> lk(mu_);
  watched_[rank] = WatchState{MonotonicSeconds(), true};
}

void Transport::UnwatchPeer(int rank) {
  std::lock_guard<std::mutex> lk(mu_);
  watched_.erase(rank);
}

double Transport::SecondsSinceContact(int rank) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = watched_.find(rank);
  if (it == watched_.end()) return std::numeric_limits<double>::infinity();
  return MonotonicSeconds() - it->second.last_contact;
}

void Transport::TouchContact(int rank) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = watched_.find(rank);
  if (it != watched_.end()) it->second.last_contact = MonotonicSeconds();
}

void Transport::ReportDeath(int rank, const std::string& why,
                            uint64_t term) {
  DeathCallback cb;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = watched_.find(rank);
    if (it == watched_.end() || !it->second.armed) return;
    it->second.armed = false;  // one report per WatchPeer arm
    cb = on_death_;
  }
  if (cb) cb(rank, why, term);
}

void Transport::DropConnection(int rank) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = out_conns_.find(rank);
    if (it != out_conns_.end()) conn = it->second;
  }
  if (conn) RetireConn(conn, Status::Unavailable("connection dropped"));
}

void Transport::MonitorLoop() {
  while (!stop_.load()) {
    std::vector<int> dead_ranks;
    {
      std::unique_lock<std::mutex> lk(mu_);
      stop_cv_.wait_for(lk,
                        std::chrono::duration<double>(kMonitorTickSeconds),
                        [this] { return stop_.load(); });
      if (stop_.load()) return;
      const double now = MonotonicSeconds();
      for (auto& [rank, w] : watched_) {
        if (w.armed && now - w.last_contact > opts_.peer_timeout_s) {
          dead_ranks.push_back(rank);
        }
      }
      // Reap retired connections whose readers have finished.
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->reader_done.load() && (*it)->reader.joinable()) {
          (*it)->reader.join();
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (int rank : dead_ranks) {
      ReportDeath(rank,
                  "heartbeat timeout (> " +
                      std::to_string(opts_.peer_timeout_s) + "s)",
                  /*term=*/0);
    }
  }
}

void Transport::Shutdown() {
  if (stop_.exchange(true)) {
    // A second caller still waits for thread teardown done by the first.
    if (accept_thread_.joinable()) return;
  }
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lk(mu_);
    conns = conns_;
    for (auto& [seq, pc] : pending_) {
      if (!pc->done) {
        pc->done = true;
        pc->st = Status::Unavailable("transport shutdown");
        pc->cv.notify_all();  // under mu_: see RetireConn
      }
    }
  }
  stop_cv_.notify_all();
  for (auto& c : conns) {
    c->dead.store(true);
    ::shutdown(c->fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (monitor_thread_.joinable()) monitor_thread_.join();
  for (auto& t : heartbeat_threads_) {
    if (t.joinable()) t.join();
  }
  heartbeat_threads_.clear();
  {
    std::lock_guard<std::mutex> lk(mu_);
    conns = std::move(conns_);
    conns_.clear();
    out_conns_.clear();
  }
  for (auto& c : conns) {
    if (c->reader.joinable()) c->reader.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!uds_unlink_path_.empty()) ::unlink(uds_unlink_path_.c_str());
}

}  // namespace net
}  // namespace hongtu
