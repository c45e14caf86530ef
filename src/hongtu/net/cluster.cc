#include "hongtu/net/cluster.h"

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "hongtu/common/logging.h"
#include "hongtu/common/wire.h"
#include "hongtu/engine/hongtu_engine.h"
#include "hongtu/net/rpc_comm.h"

extern char** environ;

namespace hongtu {
namespace net {

namespace {

constexpr int64_t kNoKillEpoch = -1;

double NowS() { return MonotonicSeconds(); }

/// Best-effort removal of a flat scratch directory (sockets, checkpoints).
void RemoveDirShallow(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

// ---- Graceful SIGTERM ------------------------------------------------------
//
// Workers and coordinator install the same async-signal-safe flag setter;
// their command/wait loops tick every few hundred ms and drain out cleanly
// (pending RPC replies flush, children are reaped) instead of dying mid-write.

std::atomic<bool> g_sigterm{false};

void SigtermHandler(int) { g_sigterm.store(true, std::memory_order_relaxed); }

void InstallSigtermHandler() {
  struct sigaction sa = {};
  sa.sa_handler = SigtermHandler;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
}

bool SigtermRequested() {
  return g_sigterm.load(std::memory_order_relaxed);
}

/// True when `pid` is certainly gone. Reaps it when it is our zombie child
/// (an in-process coordinator restart keeps the workers as children of this
/// process, where kill(pid, 0) alone would call a zombie alive forever); a
/// re-attached worker inherited from a previous coordinator process is not
/// our child, so ECHILD falls back to the signal-0 probe.
bool ProbePidDead(pid_t pid) {
  int ws = 0;
  const pid_t r = ::waitpid(pid, &ws, WNOHANG);
  if (r == pid) return true;
  if (r < 0 && errno == ECHILD) {
    return ::kill(pid, 0) != 0 && errno == ESRCH;
  }
  return false;  // still running (our child), or transient waitpid error
}

/// ProbePidDead, allowing `pid` up to `seconds` to finish dying: a
/// SIGKILLed process hangs up its sockets a moment before it can be reaped,
/// so the EOF that reports its death can arrive first.
bool PidDiesWithin(pid_t pid, double seconds) {
  const double t_end = NowS() + seconds;
  while (!ProbePidDead(pid)) {
    if (NowS() >= t_end) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// SIGKILL + wait until the process is gone, whether or not it is a child.
void KillPidAndWait(pid_t pid) {
  ::kill(pid, SIGKILL);
  int ws = 0;
  const pid_t r = ::waitpid(pid, &ws, 0);
  if (r < 0 && errno == ECHILD) {
    const double t_end = NowS() + 2.0;
    while (NowS() < t_end && ::kill(pid, 0) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

}  // namespace

bool IsCoordinatorCommand(MsgType type) {
  switch (type) {
    case MsgType::kEpoch:
    case MsgType::kEval:
    case MsgType::kShutdown:
    case MsgType::kAbort:
    case MsgType::kPeerUpdate:
    case MsgType::kAdoptPartition:
    case MsgType::kCoordUpdate:
      return true;
    default:
      return false;
  }
}

Status CheckCoordinatorTerm(uint64_t frame_term, uint64_t* known_term) {
  if (frame_term < *known_term) {
    return Status::Invalid("stale coordinator term " +
                           std::to_string(frame_term) + " (current " +
                           std::to_string(*known_term) + "): command fenced");
  }
  *known_term = frame_term;
  return Status::OK();
}

// The HONGTU_DIST_CONFIG env contract: the fields through the one byte
// cursor (floating-point values as bit patterns, so the rebuild is
// bit-exact), two hex digits per byte so the value stays printable text.
std::string EncodeClusterConfig(const ClusterConfig& c) {
  WireWriter w;
  w.Str(c.transport);
  w.I32(c.num_workers);
  w.Str(c.dataset);
  w.F64(c.dataset_scale);
  w.U64(c.dataset_seed);
  w.I32(static_cast<int32_t>(c.model_kind));
  w.Vec(c.model_dims);
  w.U64(c.model_seed);
  w.I32(c.chunks_per_partition);
  w.I32(c.dedup_level);
  w.U32(c.reorganize ? 1 : 0);
  w.U64(c.partition_seed);
  w.I32(static_cast<int32_t>(c.wire));
  // A float widens to a double and back without loss.
  for (const float f : {c.adam.lr, c.adam.beta1, c.adam.beta2, c.adam.eps,
                        c.adam.weight_decay}) {
    w.F64(f);
  }
  w.Str(c.runtime_dir);
  w.Str(c.checkpoint_dir);
  for (const double d : {c.heartbeat_interval_s, c.peer_timeout_s,
                         c.rpc_deadline_s, c.epoch_deadline_s,
                         c.recovery_grace_s, c.coord_lease_s}) {
    w.F64(d);
  }
  w.Str(c.recover_mode);
  const std::string bytes = w.Take();
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const unsigned char b : bytes) {
    out += kHex[b >> 4];
    out += kHex[b & 15];
  }
  return out;
}

Result<ClusterConfig> DecodeClusterConfig(const std::string& s) {
  if (s.size() % 2 != 0) return Status::Invalid("cluster config: odd length");
  std::string bytes(s.size() / 2, '\0');
  for (size_t i = 0; i < s.size(); ++i) {
    const char ch = s[i];
    const int v = ch >= '0' && ch <= '9'   ? ch - '0'
                  : ch >= 'a' && ch <= 'f' ? ch - 'a' + 10
                                           : -1;
    if (v < 0) return Status::Invalid("cluster config: not hex");
    bytes[i / 2] = static_cast<char>(bytes[i / 2] << 4 | v);
  }
  WireReader r(bytes);
  ClusterConfig c;
  HT_ASSIGN_OR_RETURN(c.transport, r.Str());
  HT_ASSIGN_OR_RETURN(c.num_workers, r.I32());
  HT_ASSIGN_OR_RETURN(c.dataset, r.Str());
  HT_ASSIGN_OR_RETURN(c.dataset_scale, r.F64());
  HT_ASSIGN_OR_RETURN(c.dataset_seed, r.U64());
  HT_ASSIGN_OR_RETURN(const int32_t kind, r.I32());
  c.model_kind = static_cast<GnnKind>(kind);
  HT_RETURN_IF_ERROR(r.Vec(&c.model_dims));
  HT_ASSIGN_OR_RETURN(c.model_seed, r.U64());
  HT_ASSIGN_OR_RETURN(c.chunks_per_partition, r.I32());
  HT_ASSIGN_OR_RETURN(c.dedup_level, r.I32());
  HT_ASSIGN_OR_RETURN(const uint32_t reorganize, r.U32());
  c.reorganize = reorganize != 0;
  HT_ASSIGN_OR_RETURN(c.partition_seed, r.U64());
  HT_ASSIGN_OR_RETURN(const int32_t wire, r.I32());
  c.wire = static_cast<kernels::CommPrecision>(wire);
  for (float* f : {&c.adam.lr, &c.adam.beta1, &c.adam.beta2, &c.adam.eps,
                   &c.adam.weight_decay}) {
    HT_ASSIGN_OR_RETURN(const double d, r.F64());
    *f = static_cast<float>(d);
  }
  HT_ASSIGN_OR_RETURN(c.runtime_dir, r.Str());
  HT_ASSIGN_OR_RETURN(c.checkpoint_dir, r.Str());
  for (double* d : {&c.heartbeat_interval_s, &c.peer_timeout_s,
                    &c.rpc_deadline_s, &c.epoch_deadline_s,
                    &c.recovery_grace_s, &c.coord_lease_s}) {
    HT_ASSIGN_OR_RETURN(*d, r.F64());
  }
  HT_ASSIGN_OR_RETURN(c.recover_mode, r.Str());
  if (c.dataset.empty()) return Status::Invalid("cluster config: no dataset");
  if (c.model_dims.size() < 2) {
    return Status::Invalid("cluster config needs dims with >= 2 entries");
  }
  if (c.num_workers < 1) return Status::Invalid("cluster config workers < 1");
  return c;
}

Status DecodeEpochDone(const std::string& payload, uint64_t* run, int* rank,
                       EpochDoneReport* d) {
  WireReader r(payload);
  HT_ASSIGN_OR_RETURN(*run, r.U64());
  HT_ASSIGN_OR_RETURN(const uint32_t rank_u, r.U32());
  HT_ASSIGN_OR_RETURN(const uint32_t ok_u, r.U32());
  HT_ASSIGN_OR_RETURN(d->error, r.Str());
  HT_ASSIGN_OR_RETURN(d->loss, r.F64());
  HT_ASSIGN_OR_RETURN(d->accuracy, r.F64());
  HT_ASSIGN_OR_RETURN(d->n, r.U64());
  HT_ASSIGN_OR_RETURN(const uint32_t ncnt, r.U32());
  *rank = static_cast<int>(rank_u);
  d->received = true;
  d->ok = ok_u != 0;
  for (uint32_t e = 0; e < ncnt; ++e) {
    HT_ASSIGN_OR_RETURN(const int64_t c, r.I64());
    if (e < fault::kNumDegradeEvents) d->rec.counts[e] = c;
  }
  HT_ASSIGN_OR_RETURN(const uint32_t gcnt, r.U32());
  for (uint32_t g = 0; g < gcnt; ++g) {
    HT_ASSIGN_OR_RETURN(const uint64_t rows, r.U64());
    HT_ASSIGN_OR_RETURN(const uint64_t cols, r.U64());
    // rows x cols floats must fit: rows x cols bytes first, so the product
    // that the second check takes cannot wrap.
    HT_RETURN_IF_ERROR(r.Fits(rows, cols));
    HT_RETURN_IF_ERROR(r.Fits(rows * cols, sizeof(float)));
    const size_t count = static_cast<size_t>(rows * cols);
    std::vector<float> buf(count);
    HT_RETURN_IF_ERROR(r.Raw(buf.data(), count * sizeof(float)));
    d->grads.push_back(std::move(buf));
  }
  return Status::OK();
}

// ============================================================================
// Worker
// ============================================================================

namespace {

class RankState;

/// One worker process: the process shell. Rebuilds the dataset from the env
/// contract, owns the transport, and hosts one or more `RankState`s: its
/// own rank always (`primary_`), plus any dead partitions it adopted for
/// the current run (`adopted_`). Every peer-visible payload carries an
/// explicit owner rank, so requests are routed to the right hosted state
/// regardless of which process serves them.
class ClusterWorker {
 public:
  int Run();

 private:
  friend class RankState;

  Status Init();
  void MainLoop();
  void OnRequest(Transport::Request&& req);
  /// Routes a peer data RPC (fetch, push, sync_state, fetch_push) to the
  /// RpcComm of the rank it names as owner.
  void RoutePeerRequest(Transport::Request& req);
  /// Runs a queued kEpoch or kEval command on the primary rank.
  void RunCmd(const Frame& cmd);
  void HandlePeerUpdate(Transport::Request& req);
  void HandleAdopt(Transport::Request& req);
  void HandleCoordUpdate(Transport::Request& req);
  /// True while a parked worker's coordinator lease is still open: the
  /// coordinator is known dead but a successor may still appear. Report
  /// retry loops keep trying through this window.
  bool InCoordLease() const {
    const double dead = coord_dead_since_.load(std::memory_order_relaxed);
    return dead > 0.0 && NowS() < dead + cfg_.coord_lease_s;
  }
  /// The hosted state for `owner`: the primary rank or an adopted one.
  /// nullptr when this process does not (yet) host that rank.
  std::shared_ptr<RankState> FindState(int owner);
  /// Redirects a peer rank to a new address (no-op when unchanged).
  void UpdatePeer(int peer, const std::string& addr);
  /// Extends the process-wide recovery grace window to now + grace.
  void ExtendGrace();
  double grace_until() const {
    return grace_until_.load(std::memory_order_relaxed);
  }
  /// Aborts, joins and discards every adopted rank (they belong to a
  /// finished or aborted run; the real process takes over next epoch).
  void ClearAdopted(uint64_t abort_upto);

  int rank_ = -1;
  int W_ = 0;
  int coord_ = 0;  ///< coordinator rank = W_
  int64_t kill_epoch_ = kNoKillEpoch;
  bool kill_on_recover_ = false;
  std::atomic<bool> kill_fired_{false};
  ClusterConfig cfg_;
  Dataset ds_;
  std::unique_ptr<Transport> transport_;

  std::mutex pmu_;
  std::condition_variable pcv_;
  std::deque<Frame> cmds_;
  struct Adopted {
    std::shared_ptr<RankState> state;
    std::thread thread;
  };
  std::map<int, Adopted> adopted_;  ///< under pmu_
  std::shared_ptr<RankState> primary_;
  /// Wall-clock (NowS) until which waits may overstay their budget because
  /// a peer is being recovered. 0 when no recovery is in flight.
  std::atomic<double> grace_until_{0.0};
  /// Highest coordinator term seen (fencing word); mirrored into the
  /// transport so this worker's own frames carry it.
  std::atomic<uint64_t> coord_term_{0};
  /// NowS() when the coordinator was declared dead; 0 while it is alive.
  /// Set by the transport death callback (park), cleared by the first
  /// term-valid coordinator command (re-attach).
  std::atomic<double> coord_dead_since_{0.0};
};

/// Per-hosted-rank state: a HongTuEngine that hosts this rank's device and
/// moves rows through an RpcComm (net/rpc_comm.h), which also keeps the
/// replay logs and serves the peer RPCs. A process usually hosts exactly
/// one (its own rank); after `kAdoptPartition` it hosts a survivor copy of a
/// dead rank too.
class RankState {
 public:
  RankState(ClusterWorker* host, int rank);

  /// Builds the engine — the same preprocessing, from the same seeds, as a
  /// single-process HongTuEngine over all the workers' devices — and its
  /// RpcComm.
  Status Prepare();

  void ExecuteEpoch(uint64_t run, int64_t epoch, bool recover,
                    const std::string& tail);
  void ExecuteEval(uint64_t run, SplitRole role, const std::string& tail);
  void Abort(uint64_t run) { comm_->Abort(run); }

  /// The peer-RPC side of this rank.
  RpcComm* comm() { return comm_; }
  /// Its degrade counters travel to the coordinator in kEpochDone.
  HongTuEngine* engine() { return engine_.get(); }

 private:
  /// The run start shared by epochs and evals: resets the RpcComm's
  /// per-run state, then installs the run's peer addresses and weights from
  /// the command tail. False when the run was aborted before it started
  /// (nothing runs and nothing is reported).
  bool BeginRun(uint64_t run, const std::string& tail, Status* st);
  /// Delivers a done report; a resend after a dropped frame or lost ack is
  /// deduped by the coordinator's !received guard.
  void Report(MsgType type, const char* site, const std::string& report);

  ClusterWorker* host_;
  const int rank_;
  std::unique_ptr<HongTuEngine> engine_;
  RpcComm* comm_ = nullptr;  ///< owned by engine_
  uint64_t own_train_ = 0;   ///< train vertices of this rank's partition
};

// ---- ClusterWorker: process shell -----------------------------------------

int ClusterWorker::Run() {
  // Coordinator death no longer kills the worker outright (the old
  // PDEATHSIG contract): the worker parks under the coordinator lease and
  // re-attaches to a restarted coordinator; orphans self-expire instead.
  InstallSigtermHandler();
  const Status st = Init();
  if (!st.ok()) {
    HT_LOG(ERROR) << "cluster worker failed to start: " << st.ToString();
    return 1;
  }
  HT_LOG(INFO) << "cluster worker r" << rank_ << " up at "
               << transport_->bound_addr() << " (pid " << ::getpid() << ")";
  MainLoop();
  ClearAdopted(~0ULL);
  transport_->Shutdown();
  return 0;
}

Status ClusterWorker::Init() {
  const char* rank_s = std::getenv(kEnvDistRank);
  const char* coord_s = std::getenv(kEnvDistCoord);
  const char* cfg_s = std::getenv(kEnvDistConfig);
  if (rank_s == nullptr || coord_s == nullptr || cfg_s == nullptr) {
    return Status::Invalid(
        "worker role needs HONGTU_DIST_RANK/COORD/CONFIG set");
  }
  rank_ = std::atoi(rank_s);
  HT_ASSIGN_OR_RETURN(cfg_, DecodeClusterConfig(cfg_s));
  W_ = cfg_.num_workers;
  coord_ = W_;
  if (rank_ < 0 || rank_ >= W_) {
    return Status::Invalid("worker rank out of range: " + std::string(rank_s));
  }
  if (const char* ke = std::getenv(kEnvDistKillEpoch)) {
    kill_epoch_ = std::atoll(ke);
  }
  if (const char* kr = std::getenv(kEnvDistKillOnRecover)) {
    kill_on_recover_ = kr[0] != '\0' && kr[0] != '0';
  }

  // Rebuild the exact training problem from provenance — the graph itself
  // never crosses the wire.
  HT_ASSIGN_OR_RETURN(
      ds_, LoadDatasetScaled(cfg_.dataset, cfg_.dataset_scale,
                             cfg_.dataset_seed));


  Transport::Options topt;
  topt.rank = rank_;
  topt.heartbeat_interval_s = cfg_.heartbeat_interval_s;
  topt.peer_timeout_s = cfg_.peer_timeout_s;
  topt.io_deadline_s = cfg_.rpc_deadline_s;
  transport_.reset(new Transport(topt));
  transport_->set_handler(
      [this](Transport::Request&& req) { OnRequest(std::move(req)); });
  transport_->set_death_callback([this](int rank, const std::string& why,
                                        uint64_t term) {
    if (rank != coord_) return;
    if (term != 0 && term < coord_term_.load(std::memory_order_relaxed)) {
      // A superseded coordinator incarnation closed its connection: a
      // fenced zombie exiting, or the old endpoint a re-attach dropped. The
      // current coordinator is not lost, so stay attached and re-arm the
      // watch this report consumed.
      transport_->WatchPeer(coord_);
      return;
    }
    HT_LOG(WARNING) << "worker r" << rank_ << ": coordinator lost (" << why
                    << ") — parking for up to " << cfg_.coord_lease_s << "s";
    LogRecoveryEvent("coord_park", coord_term_.load(std::memory_order_relaxed),
                     rank_, 0.0, why);
    coord_dead_since_.store(NowS(), std::memory_order_relaxed);
    pcv_.notify_all();
  });
  std::string listen_addr;
  if (cfg_.transport == "uds") {
    listen_addr = "uds:" + cfg_.runtime_dir + "/w" + std::to_string(rank_) +
                  "." + std::to_string(::getpid()) + ".sock";
  } else {
    listen_addr = "tcp:127.0.0.1:0";
  }
  HT_RETURN_IF_ERROR(transport_->Listen(listen_addr));
  transport_->SetPeer(coord_, coord_s);
  // Self-dial: an adopted rank hosted here fetches from the primary rank
  // (and vice versa) over the same transport path as any remote peer.
  transport_->SetPeer(rank_, transport_->bound_addr());

  primary_.reset(new RankState(this, rank_));
  HT_RETURN_IF_ERROR(primary_->Prepare());

  WireWriter hello;
  hello.U32(static_cast<uint32_t>(rank_));
  hello.Str(transport_->bound_addr());
  hello.U64(static_cast<uint64_t>(::getpid()));
  HT_ASSIGN_OR_RETURN(
      const std::string hr,
      transport_->Call(coord_, MsgType::kHello, hello.Take(), 30.0));
  // The hello ack advertises the coordinator's fencing term.
  if (!hr.empty()) {
    WireReader rr(hr);
    auto term_r = rr.U64();
    if (term_r.ok()) {
      coord_term_.store(term_r.ValueOrDie(), std::memory_order_relaxed);
      transport_->set_term(term_r.ValueOrDie());
    }
  }
  transport_->StartHeartbeatTo(coord_);
  // Watch the coordinator back (it heartbeats us): silence or connection
  // EOF parks this worker instead of leaving it wedged on a dead peer.
  transport_->WatchPeer(coord_);
  return Status::OK();
}

void ClusterWorker::MainLoop() {
  for (;;) {
    Frame cmd;
    {
      std::unique_lock<std::mutex> lk(pmu_);
      while (cmds_.empty()) {
        pcv_.wait_for(lk, std::chrono::milliseconds(200));
        if (SigtermRequested()) {
          HT_LOG(INFO) << "cluster worker r" << rank_
                       << ": SIGTERM — draining and exiting";
          return;
        }
        const double dead = coord_dead_since_.load(std::memory_order_relaxed);
        if (dead > 0.0 && NowS() >= dead + cfg_.coord_lease_s) {
          HT_LOG(WARNING) << "cluster worker r" << rank_
                          << ": coordinator lease expired ("
                          << cfg_.coord_lease_s << "s with no successor) — "
                          << "exiting";
          return;
        }
      }
      cmd = std::move(cmds_.front());
      cmds_.pop_front();
    }
    if (SigtermRequested()) {
      HT_LOG(INFO) << "cluster worker r" << rank_
                   << ": SIGTERM — draining and exiting";
      return;
    }
    switch (cmd.type) {
      case MsgType::kShutdown:
        HT_LOG(INFO) << "cluster worker r" << rank_ << " shutting down";
        return;
      case MsgType::kEpoch:
      case MsgType::kEval:
        RunCmd(cmd);
        break;
      default:
        HT_LOG(WARNING) << "worker r" << rank_ << ": unexpected command "
                        << MsgTypeName(cmd.type);
        break;
    }
  }
}

void ClusterWorker::OnRequest(Transport::Request&& req) {
  if (IsCoordinatorCommand(req.frame.type)) {
    // Term fencing: reject commands from a superseded coordinator
    // incarnation (non-transient, so its retry loop gives up immediately)
    // and adopt a successor's newer term.
    uint64_t known = coord_term_.load(std::memory_order_relaxed);
    const Status fence = CheckCoordinatorTerm(req.frame.term, &known);
    if (!fence.ok()) {
      HT_LOG(WARNING) << "worker r" << rank_ << ": fenced "
                      << MsgTypeName(req.frame.type) << ": "
                      << fence.ToString();
      req.reply_error(fence);
      return;
    }
    uint64_t cur = coord_term_.load(std::memory_order_relaxed);
    while (cur < known &&
           !coord_term_.compare_exchange_weak(cur, known,
                                              std::memory_order_relaxed)) {
    }
    if (transport_->term() < known) transport_->set_term(known);
    // Any term-valid coordinator command proves the coordinator (or its
    // successor) is alive: leave the parked state and re-arm the watch.
    const double parked =
        coord_dead_since_.exchange(0.0, std::memory_order_relaxed);
    if (parked > 0.0) {
      transport_->WatchPeer(coord_);
      LogRecoveryEvent("coord_reattach", known, rank_, NowS() - parked,
                       std::string("via ") + MsgTypeName(req.frame.type));
    }
  }
  switch (req.frame.type) {
    case MsgType::kCoordUpdate:
      HandleCoordUpdate(req);
      return;
    case MsgType::kEpoch:
    case MsgType::kEval:
    case MsgType::kShutdown: {
      // Long commands: ack now, execute on the main thread.
      {
        std::lock_guard<std::mutex> lk(pmu_);
        cmds_.push_back(std::move(req.frame));
      }
      pcv_.notify_all();
      req.reply(MsgType::kAck, "");
      return;
    }
    case MsgType::kAbort: {
      WireReader r(req.frame.payload);
      auto run = r.U64();
      if (!run.ok()) {
        req.reply_error(run.status());
        return;
      }
      primary_->Abort(run.ValueOrDie());
      std::vector<std::shared_ptr<RankState>> extra;
      {
        std::lock_guard<std::mutex> lk(pmu_);
        for (auto& kv : adopted_) extra.push_back(kv.second.state);
      }
      for (auto& s : extra) s->Abort(run.ValueOrDie());
      req.reply(MsgType::kAck, "");
      return;
    }
    case MsgType::kFetchRows:
    case MsgType::kGradPush:
    case MsgType::kSyncState:
    case MsgType::kFetchPush:
      RoutePeerRequest(req);
      return;
    case MsgType::kPeerUpdate:
      HandlePeerUpdate(req);
      return;
    case MsgType::kAdoptPartition:
      HandleAdopt(req);
      return;
    default:
      req.reply_error(Status::Invalid(std::string("worker: unexpected ") +
                                      MsgTypeName(req.frame.type)));
      return;
  }
}

void ClusterWorker::RoutePeerRequest(Transport::Request& req) {
  // Every peer data payload starts {run u64, step u32 (not kSyncState),
  // owner u32, requester/sender/asker u32}; a push's row block follows.
  const MsgType type = req.frame.type;
  WireReader r(req.frame.payload);
  auto run_r = r.U64();
  auto step_r = type == MsgType::kSyncState ? Result<uint32_t>(0u) : r.U32();
  auto owner_r = r.U32();
  auto peer_r = r.U32();
  if (!run_r.ok() || !step_r.ok() || !owner_r.ok() || !peer_r.ok()) {
    req.reply_error(Status::DataLoss(std::string("malformed ") +
                                     MsgTypeName(type) + " payload"));
    return;
  }
  const uint64_t run = run_r.ValueOrDie();
  const int64_t step = static_cast<int64_t>(step_r.ValueOrDie());
  const int owner = static_cast<int>(owner_r.ValueOrDie());
  const int peer = static_cast<int>(peer_r.ValueOrDie());
  if (owner < 0 || owner >= W_ || peer < 0 || peer >= W_) {
    req.reply_error(Status::Invalid(std::string(MsgTypeName(type)) +
                                    " names an unknown rank"));
    return;
  }
  auto st = FindState(owner);
  if (st == nullptr) {
    // Transient by design: during an adoption handoff the requester
    // retries until the new host registers the rank.
    req.reply_error(Status::Unavailable(
        "rank r" + std::to_string(owner) + " is not hosted here"));
    return;
  }
  RpcComm* comm = st->comm();
  switch (type) {
    case MsgType::kFetchRows:
      comm->HandleFetch(req, run, step, peer);
      return;
    case MsgType::kGradPush:
      comm->HandlePush(req, run, step, peer,
                       req.frame.payload.substr(req.frame.payload.size() -
                                                r.remaining()));
      return;
    case MsgType::kSyncState:
      comm->HandleSyncState(req, run, peer);
      return;
    default:
      comm->HandleFetchPush(req, run, step, peer);
      return;
  }
}

std::shared_ptr<RankState> ClusterWorker::FindState(int owner) {
  if (owner == rank_) return primary_;
  std::lock_guard<std::mutex> lk(pmu_);
  auto it = adopted_.find(owner);
  return it == adopted_.end() ? nullptr : it->second.state;
}

void ClusterWorker::UpdatePeer(int peer, const std::string& addr) {
  // A recovered peer has a fresh address; SetPeer retires the cached
  // connection to the old one, so the next Call dials the new process.
  if (peer >= 0 && peer < W_) transport_->SetPeer(peer, addr);
}

void ClusterWorker::ExtendGrace() {
  const double until = NowS() + cfg_.recovery_grace_s;
  double cur = grace_until_.load(std::memory_order_relaxed);
  while (cur < until && !grace_until_.compare_exchange_weak(cur, until)) {
  }
}

void ClusterWorker::HandlePeerUpdate(Transport::Request& req) {
  WireReader r(req.frame.payload);
  auto run_r = r.U64();
  auto rank_r = r.U32();
  auto addr_r = r.Str();
  if (!run_r.ok() || !rank_r.ok() || !addr_r.ok()) {
    req.reply_error(Status::DataLoss("malformed kPeerUpdate payload"));
    return;
  }
  const int peer = static_cast<int>(rank_r.ValueOrDie());
  if (peer < 0 || peer >= W_) {
    req.reply_error(Status::Invalid("peer update for unknown rank"));
    return;
  }
  if (kill_on_recover_ && peer != rank_ && !kill_fired_.exchange(true)) {
    // Double-fault drill: die deterministically in the middle of another
    // rank's recovery, before acking the update.
    HT_LOG(WARNING) << "worker r" << rank_
                    << ": kill-during-recovery drill — raising SIGKILL";
    ::raise(SIGKILL);
  }
  UpdatePeer(peer, addr_r.ValueOrDie());
  ExtendGrace();
  req.reply(MsgType::kAck, "");
}

void ClusterWorker::HandleCoordUpdate(Transport::Request& req) {
  // A restarted coordinator announcing itself: {term, new endpoint}. The
  // fencing preamble already validated/adopted the term and un-parked us.
  WireReader r(req.frame.payload);
  auto term_r = r.U64();
  auto addr_r = r.Str();
  if (!term_r.ok() || !addr_r.ok()) {
    req.reply_error(Status::DataLoss("malformed kCoordUpdate payload"));
    return;
  }
  transport_->DropConnection(coord_);
  transport_->SetPeer(coord_, addr_r.ValueOrDie());
  transport_->WatchPeer(coord_);
  const uint64_t cur_run = primary_->comm()->current_run();
  HT_LOG(INFO) << "worker r" << rank_ << ": re-attached to coordinator at "
               << addr_r.ValueOrDie() << " (term " << term_r.ValueOrDie()
               << ", current run " << cur_run << ")";
  primary_->engine()->degradation()->Record(
      fault::DegradeEvent::kWorkerReattach,
      "re-attached to coordinator term " + std::to_string(term_r.ValueOrDie()));
  // Reply with who we are and which run we are inside, so the successor can
  // decide whether we must rejoin its resumed run.
  WireWriter w;
  w.U32(static_cast<uint32_t>(rank_));
  w.U64(cur_run);
  req.reply(MsgType::kAck, w.Take());
  pcv_.notify_all();
}

void ClusterWorker::HandleAdopt(Transport::Request& req) {
  WireReader r(req.frame.payload);
  auto run_r = r.U64();
  auto epoch_r = r.U64();
  auto rank_r = r.U32();
  if (!run_r.ok() || !epoch_r.ok() || !rank_r.ok()) {
    req.reply_error(Status::DataLoss("malformed kAdoptPartition payload"));
    return;
  }
  const uint64_t run = run_r.ValueOrDie();
  const int64_t epoch = static_cast<int64_t>(epoch_r.ValueOrDie());
  const int adopt = static_cast<int>(rank_r.ValueOrDie());
  if (adopt < 0 || adopt >= W_ || adopt == rank_) {
    req.reply_error(
        Status::Invalid("cannot adopt rank " + std::to_string(adopt)));
    return;
  }
  {
    std::lock_guard<std::mutex> lk(pmu_);
    if (adopted_.count(adopt) != 0) {
      // Duplicate of a retried kAdoptPartition whose ack was lost.
      req.reply(MsgType::kAck, "");
      return;
    }
  }
  const std::string tail =
      req.frame.payload.substr(req.frame.payload.size() - r.remaining());
  std::shared_ptr<RankState> st(new RankState(this, adopt));
  const Status ps = st->Prepare();
  if (!ps.ok()) {
    req.reply_error(ps);
    return;
  }
  ExtendGrace();
  {
    std::lock_guard<std::mutex> lk(pmu_);
    Adopted& a = adopted_[adopt];
    a.state = st;
    a.thread = std::thread([st, run, epoch, tail] {
      st->ExecuteEpoch(run, epoch, /*recover=*/true, tail);
    });
  }
  HT_LOG(INFO) << "worker r" << rank_ << ": adopted partition r" << adopt
               << " for run " << run;
  req.reply(MsgType::kAck, "");
}

void ClusterWorker::ClearAdopted(uint64_t abort_upto) {
  std::map<int, Adopted> old;
  {
    std::lock_guard<std::mutex> lk(pmu_);
    old.swap(adopted_);
  }
  for (auto& kv : old) {
    kv.second.state->Abort(abort_upto);
    if (kv.second.thread.joinable()) kv.second.thread.join();
  }
}

void ClusterWorker::RunCmd(const Frame& cmd) {
  // kEpoch{run, epoch, recover} or kEval{run, split}, then the run tail.
  const bool eval = cmd.type == MsgType::kEval;
  WireReader r(cmd.payload);
  auto run_r = r.U64();
  auto epoch_r = eval ? Result<uint64_t>(uint64_t{0}) : r.U64();
  auto arg_r = r.U32();
  if (!run_r.ok() || !epoch_r.ok() || !arg_r.ok()) {
    HT_LOG(WARNING) << "worker r" << rank_ << ": malformed "
                    << MsgTypeName(cmd.type) << " payload";
    return;
  }
  const uint64_t run = run_r.ValueOrDie();
  // Adopted ranks belong to an earlier run; their real process takes over.
  ClearAdopted(run > 0 ? run - 1 : 0);
  const std::string tail = cmd.payload.substr(cmd.payload.size() - r.remaining());
  if (eval) {
    primary_->ExecuteEval(run, static_cast<SplitRole>(arg_r.ValueOrDie()),
                          tail);
  } else {
    primary_->ExecuteEpoch(run, static_cast<int64_t>(epoch_r.ValueOrDie()),
                           arg_r.ValueOrDie() != 0, tail);
  }
}

// ---- RankState: per-hosted-rank training state -----------------------------

RankState::RankState(ClusterWorker* host, int rank)
    : host_(host), rank_(rank) {}

Status RankState::Prepare() {
  const ClusterConfig& cfg = host_->cfg_;
  const ModelConfig mc{cfg.model_kind, cfg.model_dims, cfg.model_seed};
  // Everything else is the engine's default, as for a single-process engine
  // built from the same config (HONGTU_MAX_INFLIGHT and the other runtime
  // variables reach the workers through their inherited environment).
  EngineConfig ec;
  ec.num_devices = cfg.num_workers;
  ec.chunks_per_partition = cfg.chunks_per_partition;
  ec.dedup = static_cast<DedupLevel>(cfg.dedup_level);
  ec.reorganize = cfg.reorganize;
  ec.partition_seed = cfg.partition_seed;
  ec.comm_precision = cfg.wire;
  ec.adam = cfg.adam;
  const RpcComm::Host rh{host_->transport_.get(), rank_, cfg.rpc_deadline_s,
                         cfg.peer_timeout_s,
                         [w = host_] { return w->grace_until(); },
                         [w = host_] { return w->InCoordLease(); }};
  HT_ASSIGN_OR_RETURN(
      engine_,
      HongTuEngine::CreateHosting(
          &host_->ds_, mc, ec, rank_,
          [&](const DedupPlan& plan, fault::DegradationPolicy* degrade) {
            auto comm = std::make_unique<RpcComm>(rh, &plan, degrade);
            comm_ = comm.get();
            return std::unique_ptr<LayerComm>(std::move(comm));
          }));
  const std::vector<int32_t>& part = engine_->partition().partition_of;
  for (const VertexId v : host_->ds_.VerticesWithRole(SplitRole::kTrain)) {
    if (part[static_cast<size_t>(v)] == rank_) ++own_train_;
  }
  return Status::OK();
}

bool RankState::BeginRun(uint64_t run, const std::string& tail, Status* st) {
  if (!comm_->StartRun(run)) return false;  // aborted while queued
  WireReader r(tail);
  *st = [&]() -> Status {
    const int W = host_->W_;
    HT_ASSIGN_OR_RETURN(uint32_t w_count, r.U32());
    if (static_cast<int>(w_count) != W) {
      return Status::Invalid("run announces " + std::to_string(w_count) +
                             " workers, expected " + std::to_string(W));
    }
    for (int w = 0; w < W; ++w) {
      HT_ASSIGN_OR_RETURN(std::string addr, r.Str());
      host_->UpdatePeer(w, addr);
    }
    HT_ASSIGN_OR_RETURN(uint32_t p_count, r.U32());
    const std::vector<Tensor*> params = engine_->model()->AllParams();
    if (p_count != params.size()) {
      return Status::Invalid("run broadcast has " + std::to_string(p_count) +
                             " params, model has " +
                             std::to_string(params.size()));
    }
    for (Tensor* p : params) {
      HT_ASSIGN_OR_RETURN(uint64_t rows, r.U64());
      HT_ASSIGN_OR_RETURN(uint64_t cols, r.U64());
      if (static_cast<int64_t>(rows) != p->rows() ||
          static_cast<int64_t>(cols) != p->cols()) {
        return Status::Invalid("parameter shape mismatch in run broadcast");
      }
      HT_RETURN_IF_ERROR(
          r.Raw(p->data(), static_cast<size_t>(p->size()) * sizeof(float)));
    }
    return Status::OK();
  }();
  return true;
}

void RankState::Report(MsgType type, const char* site,
                       const std::string& report) {
  const Status dr = comm_->RetryRpc(site, [&]() -> Status {
    return host_->transport_
        ->Call(host_->coord_, type, report, comm_->AttemptDeadlineS())
        .status();
  });
  if (!dr.ok()) {
    HT_LOG(WARNING) << "worker r" << rank_ << ": " << MsgTypeName(type)
                    << " delivery failed: " << dr.ToString();
  }
}

void RankState::ExecuteEpoch(uint64_t run, int64_t epoch, bool recover,
                             const std::string& tail) {
  Status st;
  if (!BeginRun(run, tail, &st)) return;
  if (recover) host_->ExtendGrace();
  if (st.ok() && recover) st = comm_->SyncRecoveryFloors();
  LossResult loss;
  fault::DegradationPolicy* degrade = engine_->degradation();
  if (st.ok()) {
    degrade->ResetEpoch();
    st = engine_->ForwardPass();
  }
  if (st.ok() && rank_ == host_->rank_ && epoch == host_->kill_epoch_) {
    // Deterministic failure drill (the process's own rank only): die
    // between forward and backward, with the epoch's communication in full
    // flight on the peers.
    HT_LOG(WARNING) << "worker r" << rank_ << ": kill drill at epoch "
                    << epoch << " — raising SIGKILL";
    ::raise(SIGKILL);
  }
  if (st.ok()) {
    Result<LossResult> lr = engine_->LossAndBackward();
    st = lr.status();
    if (st.ok()) loss = lr.ValueOrDie();
  }
  WireWriter w;
  w.U64(run);
  w.U32(static_cast<uint32_t>(rank_));
  w.U32(st.ok() ? 1 : 0);
  w.Str(st.ok() ? "" : st.ToString());
  w.F64(loss.loss);
  w.F64(loss.accuracy);
  w.U64(own_train_);
  const fault::RecoveryCounters rec = degrade->SnapshotEpoch();
  w.U32(fault::kNumDegradeEvents);
  for (int e = 0; e < fault::kNumDegradeEvents; ++e) w.I64(rec.counts[e]);
  if (st.ok()) {
    const std::vector<Tensor*> grads = engine_->model()->AllGrads();
    w.U32(static_cast<uint32_t>(grads.size()));
    for (const Tensor* g : grads) {
      w.U64(static_cast<uint64_t>(g->rows()));
      w.U64(static_cast<uint64_t>(g->cols()));
      w.Bytes(g->data(), static_cast<size_t>(g->size()) * sizeof(float));
    }
  } else {
    w.U32(0);
    HT_LOG(WARNING) << "worker r" << rank_ << ": epoch run " << run
                    << " failed: " << st.ToString();
  }
  // The report must arrive or the coordinator's watchdog eventually fires.
  Report(MsgType::kEpochDone, "net.epoch_done", w.Take());
}

void RankState::ExecuteEval(uint64_t run, SplitRole role,
                            const std::string& tail) {
  Status st;
  if (!BeginRun(run, tail, &st)) return;
  if (st.ok()) st = engine_->ForwardPass();
  uint64_t correct = 0, total = 0;
  if (st.ok()) {
    const std::vector<int32_t>& part = engine_->partition().partition_of;
    std::vector<VertexId> mine = host_->ds_.VerticesWithRole(role);
    mine.erase(std::remove_if(mine.begin(), mine.end(),
                              [&](VertexId v) { return part[v] != rank_; }),
               mine.end());
    total = mine.size();
    correct = static_cast<uint64_t>(std::llround(
        Accuracy(engine_->logits(), host_->ds_.labels, mine) * total));
  }
  WireWriter w;
  w.U64(run);
  w.U32(static_cast<uint32_t>(rank_));
  w.U32(st.ok() ? 1 : 0);
  w.Str(st.ok() ? "" : st.ToString());
  w.U64(correct);
  w.U64(total);
  Report(MsgType::kEvalDone, "net.eval_done", w.Take());
}

}  // namespace

void MaybeRunClusterWorker() {
  const char* role = std::getenv(kEnvDistRole);
  if (role == nullptr || std::string(role) != "worker") return;
  ClusterWorker worker;
  std::exit(worker.Run());
}

// ============================================================================
// Coordinator
// ============================================================================

namespace {
/// How long a Pump sleeps before it looks again at what no event announces:
/// SIGTERM, the deadline, and a child that exits before its hello.
constexpr double kPumpTickSeconds = 0.1;
/// How long a death report waits for the process to become reapable.
constexpr double kExitGraceSeconds = 0.05;
}  // namespace

struct ClusterCoordinator::WorkerProc {
  /// The one field a transport thread reads (to verify a death). -1 once
  /// the process is reaped, so no pid is reaped twice.
  std::atomic<pid_t> pid{-1};
  std::string addr;
  bool hello = false;
  bool dead = false;
};

struct ClusterCoordinator::RunState {
  uint64_t run = 0;  ///< active run id (0 = idle)
  bool eval = false;
  int64_t epoch = 0;  ///< training epoch the active run belongs to
  std::vector<DoneReport> done;
  int done_count = 0;
  /// Deaths applied during the active run, in detection order. A queue,
  /// not a single slot: a second rank can die while the first is still
  /// being recovered (the double-fault drill), and each death gets its own
  /// recovery pass.
  std::deque<std::pair<int, std::string>> deaths;
};

/// What a transport thread hands the coordinator thread.
struct ClusterCoordinator::Event {
  enum class Kind { kHello, kEpochDone, kEvalDone, kDeath };
  Kind kind = Kind::kHello;
  int rank = -1;
  uint64_t run = 0;
  /// Hello: the worker's address. Epoch-done: the raw report, journaled
  /// as received. Death: why.
  std::string text;
  DoneReport report;  ///< epoch-done and eval-done
  /// Acks the request once the event is applied (hello, epoch-done,
  /// eval-done); empty for a death.
  Transport::ReplyFn reply;
};

Result<std::unique_ptr<ClusterCoordinator>> ClusterCoordinator::Start(
    ClusterConfig cfg) {
  if (cfg.num_workers < 1 || cfg.num_workers > 64) {
    return Status::Invalid("cluster num_workers out of range: " +
                           std::to_string(cfg.num_workers));
  }
  if (cfg.transport != "tcp" && cfg.transport != "uds") {
    return Status::Invalid("cluster transport must be tcp or uds: " +
                           cfg.transport);
  }
  if (cfg.recover_mode != "step" && cfg.recover_mode != "adopt" &&
      cfg.recover_mode != "epoch") {
    return Status::Invalid("cluster recover_mode must be step, adopt or "
                           "epoch: " + cfg.recover_mode);
  }
  if (static_cast<DedupLevel>(cfg.dedup_level) == DedupLevel::kNone) {
    return Status::Invalid(
        "cluster backend requires dedup kP2P or kP2PReuse (owner-grouped "
        "transition buffers are the wire format)");
  }
  if (cfg.model_dims.size() < 2) {
    return Status::Invalid("cluster config needs model_dims (L+1 entries)");
  }
  if (cfg.dataset.empty()) {
    return Status::Invalid("cluster config needs a dataset name");
  }

  if (cfg.resume && cfg.runtime_dir.empty() && cfg.checkpoint_dir.empty()) {
    return Status::Invalid(
        "cluster resume needs a stable runtime_dir/checkpoint_dir (the "
        "journal and checkpoints of the previous incarnation live there)");
  }
  if (const char* lease_ms = std::getenv("HONGTU_COORD_LEASE_MS")) {
    const double ms = std::atof(lease_ms);
    if (ms > 0.0) cfg.coord_lease_s = ms / 1000.0;
  }

  std::unique_ptr<ClusterCoordinator> co(new ClusterCoordinator());
  co->cfg_ = std::move(cfg);
  ClusterConfig& c = co->cfg_;
  if (c.runtime_dir.empty()) {
    // Keep the path short: uds socket paths live inside it and must fit
    // sockaddr_un (108 bytes).
    char tmpl[] = "/tmp/hongtu-dist.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      return Status::IoError(std::string("mkdtemp: ") + std::strerror(errno));
    }
    c.runtime_dir = tmpl;
    co->owns_runtime_dir_ = true;
  }
  if (c.checkpoint_dir.empty()) c.checkpoint_dir = c.runtime_dir;

  HT_ASSIGN_OR_RETURN(co->model_, GnnModel::Create(ModelConfig{
                                      c.model_kind, c.model_dims,
                                      c.model_seed}));
  co->adam_ = Adam(c.adam);
  for (Tensor* p : co->model_.AllParams()) co->adam_.Register(p);

  co->ckpt_.reset(new CheckpointManager(c.checkpoint_dir, &co->degrade_));

  // ---- Write-ahead journal: replay (resume) or truncate (fresh). ----------
  const double t_start = NowS();
  const std::string jpath = c.checkpoint_dir + "/cluster.journal";
  JournalState js;
  bool replayed = false;
  if (c.resume) {
    auto rec_r = ClusterJournal::Replay(jpath);
    Result<JournalState> js_r = rec_r.ok()
                                    ? BuildJournalState(rec_r.ValueOrDie())
                                    : Result<JournalState>(rec_r.status());
    if (js_r.ok()) {
      js = js_r.MoveValueUnsafe();
      replayed = true;
    } else {
      // Rung 4: the journal is damaged — fall back to the checkpoint floor
      // (fresh workers, epoch rerun) instead of refusing to recover.
      co->journal_ok_ = false;
      co->degrade_.Record(fault::DegradeEvent::kCheckpointFallback,
                          "cluster journal unreadable on restart — "
                          "checkpoint-only recovery: " +
                              js_r.status().ToString());
      HT_LOG(WARNING) << "cluster coordinator: journal '" << jpath
                      << "' unreadable (" << js_r.status().ToString()
                      << ") — falling back to checkpoint recovery";
      ::unlink(jpath.c_str());
    }
  } else {
    ::unlink(jpath.c_str());
  }

  if (c.resume) {
    // Restore the authoritative model+Adam exactly where the previous
    // incarnation durably left them.
    HT_ASSIGN_OR_RETURN(co->epochs_completed_,
                        co->ckpt_->Restore(&co->model_, &co->adam_));
  } else {
    // Epoch-0 snapshot: the floor of the recovery ladder — a worker death
    // in the very first epoch restores to here.
    HT_RETURN_IF_ERROR(co->ckpt_->Save(&co->model_, co->adam_, 0));
  }

  co->term_ = js.term + 1;
  co->next_run_ = std::max<uint64_t>(js.max_run + 1, 1);
  if (replayed && js.run != 0 && !js.run_eval &&
      js.run_epoch == co->epochs_completed_) {
    // An in-flight training run whose epoch was not applied: adopt it under
    // its original id so already-journaled reports are never recomputed.
    co->resume_run_ = js.run;
    co->resume_epoch_ = js.run_epoch;
    co->resume_reports_ = js.reports;
  }

  const int W = c.num_workers;
  co->run_.reset(new RunState());
  co->run_->done.resize(W);
  std::vector<WorkerProc>(W).swap(co->workers_);

  Transport::Options topt;
  topt.rank = W;  // coordinator rank
  topt.heartbeat_interval_s = c.heartbeat_interval_s;
  topt.peer_timeout_s = c.peer_timeout_s;
  topt.io_deadline_s = c.rpc_deadline_s;
  co->transport_.reset(new Transport(topt));
  ClusterCoordinator* self = co.get();
  co->transport_->set_handler(
      [self](Transport::Request&& req) { self->OnRequest(std::move(req)); });
  co->transport_->set_death_callback(
      [self](int rank, const std::string& why, uint64_t /*term*/) {
        self->OnPeerDeath(rank, why);
      });
  const std::string listen_addr =
      c.transport == "uds" ? "uds:" + c.runtime_dir + "/coord.sock"
                           : "tcp:127.0.0.1:0";
  HT_RETURN_IF_ERROR(co->transport_->Listen(listen_addr));
  // Every frame this coordinator sends carries its (bumped) fencing term.
  co->transport_->set_term(co->term_);

  if (co->journal_ok_) {
    auto j_r = ClusterJournal::Open(jpath);
    if (j_r.ok()) {
      co->journal_ = j_r.MoveValueUnsafe();
    } else {
      co->journal_ok_ = false;
      HT_LOG(WARNING) << "cluster journal open failed ("
                      << j_r.status().ToString()
                      << ") — degrading to checkpoint-only recovery";
    }
  }
  {
    WireWriter w;
    w.U64(co->term_);
    (void)co->JournalAppend(JournalRecordType::kTerm, w.Take());
  }

  InstallSigtermHandler();
  if (replayed && !js.members.empty()) {
    // Successor path: adopt journaled survivors, respawn the dead.
    HT_RETURN_IF_ERROR(co->ReattachOrRespawn(js));
    co->resumed_from_journal_ = true;
    co->degrade_.Record(fault::DegradeEvent::kCoordJournalReplay,
                        "coordinator restarted from journal: term " +
                            std::to_string(co->term_) + ", " +
                            std::to_string(co->reattaches_) +
                            " re-attached, " + std::to_string(co->respawns_) +
                            " respawned");
    LogRecoveryEvent("journal_replay", co->term_, -1, NowS() - t_start,
                     "reattached=" + std::to_string(co->reattaches_) +
                         " respawned=" + std::to_string(co->respawns_) +
                         " resumed_run=" + std::to_string(co->resume_run_));
  } else {
    for (int r = 0; r < W; ++r) {
      HT_RETURN_IF_ERROR(co->SpawnWorker(r, /*first_spawn=*/!c.resume));
    }
    for (int r = 0; r < W; ++r) {
      HT_RETURN_IF_ERROR(co->WaitForHello(r, 120.0));
    }
    if (c.resume) {
      LogRecoveryEvent("checkpoint_fallback", co->term_, -1, NowS() - t_start,
                       "epoch=" + std::to_string(co->epochs_completed_));
    }
  }
  // Coordinator→worker heartbeats: workers watch these to detect a dead
  // coordinator and park instead of wedging (the PDEATHSIG replacement).
  for (int r = 0; r < W; ++r) co->transport_->StartHeartbeatTo(r);
  HT_LOG(INFO) << "cluster coordinator up: " << W << " workers over "
               << c.transport << ", runtime dir " << c.runtime_dir
               << ", recover_mode " << c.recover_mode << ", term "
               << co->term_;
  return co;
}

ClusterCoordinator::~ClusterCoordinator() { Shutdown(); }

Status ClusterCoordinator::SpawnWorker(int rank, bool first_spawn) {
  WorkerProc& wp = workers_[rank];
  std::vector<std::string> env;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string s(*e);
    if (s.rfind("HONGTU_DIST_", 0) == 0) continue;
    if (s.rfind("HONGTU_FAULT_SPEC=", 0) == 0) continue;
    if (s.rfind("HONGTU_CLUSTER=", 0) == 0) continue;
    if (s.rfind("OMP_NUM_THREADS=", 0) == 0) continue;
    env.push_back(s);
  }
  env.push_back(std::string(kEnvDistRole) + "=worker");
  env.push_back(std::string(kEnvDistRank) + "=" + std::to_string(rank));
  env.push_back(std::string(kEnvDistCoord) + "=" + transport_->bound_addr());
  env.push_back(std::string(kEnvDistConfig) + "=" + EncodeClusterConfig(cfg_));
  // Failure drills ride only on the FIRST spawn: a respawned worker must
  // not re-kill itself or re-inject faults, or recovery could never finish.
  if (first_spawn && rank == cfg_.fault_rank && !cfg_.worker_fault_spec.empty()) {
    env.push_back("HONGTU_FAULT_SPEC=" + cfg_.worker_fault_spec);
  }
  if (first_spawn && rank == cfg_.kill_rank && cfg_.kill_epoch >= 0) {
    env.push_back(std::string(kEnvDistKillEpoch) + "=" +
                  std::to_string(cfg_.kill_epoch));
  }
  if (first_spawn && rank == cfg_.kill2_rank && cfg_.kill2_epoch >= 0) {
    env.push_back(std::string(kEnvDistKillEpoch) + "=" +
                  std::to_string(cfg_.kill2_epoch));
  }
  if (first_spawn && rank == cfg_.kill_on_recover_rank) {
    env.push_back(std::string(kEnvDistKillOnRecover) + "=1");
  }
  // Each worker gets its share of the cores, capped by the coordinator's
  // own OMP_NUM_THREADS when one is set.
  long ncpu = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (ncpu < 1) ncpu = 1;
  long per = std::max(1L, ncpu / std::max(1, cfg_.num_workers));
  if (const char* omp = std::getenv("OMP_NUM_THREADS")) {
    if (std::atol(omp) >= 1) per = std::min(per, std::atol(omp));
  }
  env.push_back("OMP_NUM_THREADS=" + std::to_string(per));

  std::vector<char*> envp;
  envp.reserve(env.size() + 1);
  for (std::string& s : env) envp.push_back(const_cast<char*>(s.c_str()));
  envp.push_back(nullptr);
  const std::string argv0 =
      "hongtu-cluster-worker-r" + std::to_string(rank);
  char* argv[] = {const_cast<char*>(argv0.c_str()), nullptr};

  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::execve("/proc/self/exe", argv, envp.data());
    _exit(127);
  }
  wp.pid.store(pid);
  wp.dead = false;
  wp.hello = false;
  wp.addr.clear();
  return Status::OK();
}

Status ClusterCoordinator::Respawn(int rank) {
  transport_->DropConnection(rank);
  HT_RETURN_IF_ERROR(SpawnWorker(rank, /*first_spawn=*/false));
  HT_RETURN_IF_ERROR(WaitForHello(rank, 120.0));
  ++respawns_;
  return Status::OK();
}

Status ClusterCoordinator::WaitForHello(int rank, double deadline_s) {
  WorkerProc& wp = workers_[rank];
  bool exited = false;
  const Wake w = Pump(NowS() + deadline_s, [&] {
    // A worker that dies during startup (bad exec, Init error) never
    // connects: catch it by its exit.
    const pid_t p = wp.pid.load();
    exited = !wp.hello && p > 0 && ProbePidDead(p);
    return wp.hello || exited;
  });
  if (w == Wake::kTimeout) {
    return Status::Internal("worker r" + std::to_string(rank) +
                            " sent no hello within " +
                            std::to_string(deadline_s) + "s");
  }
  if (w != Wake::kReady) return Stop(w);
  if (exited) {
    wp.pid.store(-1);
    wp.dead = true;
    return Status::Internal("worker r" + std::to_string(rank) +
                            " exited during startup");
  }
  transport_->SetPeer(rank, wp.addr);
  transport_->WatchPeer(rank);
  return Status::OK();
}

Status ClusterCoordinator::JournalAppend(JournalRecordType type,
                                         std::string payload) {
  if (journal_ == nullptr || !journal_ok_) {
    return Status::OK();  // degraded: checkpoint rung still covers recovery
  }
  const Status st = journal_->Append(type, payload);
  if (!st.ok()) {
    journal_ok_ = false;
    degrade_.Record(fault::DegradeEvent::kCheckpointFallback,
                    "cluster journal append failed — degrading to "
                    "checkpoint-only recovery: " + st.ToString());
    HT_LOG(WARNING) << "cluster journal append failed (" << st.ToString()
                    << ") — coordinator restart will use the checkpoint "
                    << "fallback rung";
  }
  return st;
}

std::string ClusterCoordinator::MemberRecord(int rank) const {
  WireWriter w;
  w.U32(static_cast<uint32_t>(rank));
  w.Str(workers_[rank].addr);
  w.U64(static_cast<uint64_t>(workers_[rank].pid.load()));
  return w.Take();
}

void ClusterCoordinator::JournalCompact() {
  // After an applied epoch the live state is just: this term, the current
  // membership, the run-id high-water mark and the applied pointer.
  // Everything older is garbage.
  std::vector<JournalRecord> live;
  {
    WireWriter w;
    w.U64(term_);
    live.push_back(JournalRecord{JournalRecordType::kTerm, w.Take()});
  }
  for (size_t r = 0; r < workers_.size(); ++r) {
    if (workers_[r].dead || workers_[r].addr.empty()) continue;
    live.push_back(JournalRecord{JournalRecordType::kMember,
                                 MemberRecord(static_cast<int>(r))});
  }
  {
    // The run-id high-water mark, as the start of the last issued run; the
    // applied pointer below settles it. Dropping it would let a successor
    // reissue a run id the workers already executed, and a worker still
    // holding that run's fetch log would serve it to a peer that entered
    // the reissued run first.
    WireWriter w;
    w.U64(next_run_ - 1);
    w.U64(static_cast<uint64_t>(epochs_completed_ - 1));
    w.U32(0);
    live.push_back(JournalRecord{JournalRecordType::kRunStart, w.Take()});
  }
  {
    WireWriter w;
    w.U64(static_cast<uint64_t>(epochs_completed_));
    w.Str(ckpt_->PrimaryPath());
    live.push_back(JournalRecord{JournalRecordType::kApplied, w.Take()});
  }
  if (journal_ == nullptr || !journal_ok_) return;
  const Status st = journal_->Compact(live);
  if (!st.ok()) {
    HT_LOG(WARNING) << "cluster journal compact failed: " << st.ToString();
  }
}

Status ClusterCoordinator::ReattachOrRespawn(const JournalState& js) {
  const int W = cfg_.num_workers;
  for (int r = 0; r < W; ++r) {
    const auto it = js.members.find(r);
    const bool known = it != js.members.end() && !it->second.dead;
    const pid_t old_pid =
        known ? static_cast<pid_t>(it->second.pid) : static_cast<pid_t>(-1);
    bool attached = false;
    if (known && !ProbePidDead(old_pid)) {
      // Survivor of the previous incarnation: advertise the new term and
      // endpoint; the reply tells us which run (if any) it is inside.
      workers_[r].pid.store(old_pid);
      workers_[r].addr = it->second.addr;
      workers_[r].dead = false;
      workers_[r].hello = false;
      transport_->SetPeer(r, it->second.addr);
      WireWriter w;
      w.U64(term_);
      w.Str(transport_->bound_addr());
      const double t0 = NowS();
      auto cr = transport_->Call(r, MsgType::kCoordUpdate, w.Take(),
                                 cfg_.rpc_deadline_s);
      if (cr.ok()) {
        WireReader rr(cr.ValueOrDie());
        auto rank_r = rr.U32();
        auto run_r = rr.U64();
        if (rank_r.ok() && run_r.ok() &&
            static_cast<int>(rank_r.ValueOrDie()) == r) {
          const uint64_t cur_run = run_r.ValueOrDie();
          workers_[r].hello = true;
          transport_->WatchPeer(r);
          attached = true;
          ++reattaches_;
          (void)JournalAppend(JournalRecordType::kMember, MemberRecord(r));
          degrade_.Record(fault::DegradeEvent::kWorkerReattach,
                          "worker r" + std::to_string(r) +
                              " re-attached to coordinator term " +
                              std::to_string(term_));
          LogRecoveryEvent("coord_reattach", term_, r, NowS() - t0,
                           "cur_run=" + std::to_string(cur_run));
          if (resume_run_ != 0 && cur_run != resume_run_ &&
              resume_reports_.count(r) == 0) {
            // Alive but never saw (or already dropped) the resumed run's
            // broadcast: replay it in like a step recovery.
            rejoin_ranks_.insert(r);
          }
        }
      }
    }
    if (!attached) {
      // Verified dead, or alive-but-unresponsive (wedged): make it true,
      // journal the death, and respawn the rank fresh.
      WireWriter w;
      w.U32(static_cast<uint32_t>(r));
      (void)JournalAppend(JournalRecordType::kMemberDead, w.Take());
      if (known && !ProbePidDead(old_pid)) KillPidAndWait(old_pid);
      HT_RETURN_IF_ERROR(Respawn(r));
      LogRecoveryEvent("coord_respawn", term_, r, 0.0,
                       "respawned during coordinator restart");
      if (resume_run_ != 0 && resume_reports_.count(r) == 0) {
        rejoin_ranks_.insert(r);
      }
    }
  }
  return Status::OK();
}

void ClusterCoordinator::Crash() {
  if (crashed_ || shut_down_) return;
  crashed_ = true;
  // Tear down exactly what SIGKILL would take: sockets and the journal fd.
  // Workers and on-disk state stay intact for a successor Start(resume).
  for (size_t r = 0; r < workers_.size(); ++r) {
    transport_->UnwatchPeer(static_cast<int>(r));
  }
  transport_->Shutdown();
  // Drop the transport now: a second Shutdown from the destructor would
  // re-run the uds teardown and unlink the successor's live coord.sock.
  transport_.reset();
  journal_.reset();
  HT_LOG(WARNING) << "cluster coordinator: simulated crash (term " << term_
                  << ") — workers left running";
}

// ---- Transport threads: decode, validate, enqueue ---------------------------

void ClusterCoordinator::OnRequest(Transport::Request&& req) {
  Event ev;
  const MsgType type = req.frame.type;
  const Status st = [&]() -> Status {
    WireReader r(req.frame.payload);
    switch (type) {
      case MsgType::kHello: {
        ev.kind = Event::Kind::kHello;
        HT_ASSIGN_OR_RETURN(const uint32_t rank, r.U32());
        ev.rank = static_cast<int>(rank);
        HT_ASSIGN_OR_RETURN(ev.text, r.Str());
        return r.U64().status();  // the worker's pid
      }
      case MsgType::kEpochDone:
        ev.kind = Event::Kind::kEpochDone;
        HT_RETURN_IF_ERROR(
            DecodeEpochDone(req.frame.payload, &ev.run, &ev.rank, &ev.report));
        ev.text = std::move(req.frame.payload);
        return Status::OK();
      case MsgType::kEvalDone: {
        ev.kind = Event::Kind::kEvalDone;
        DoneReport& d = ev.report;
        HT_ASSIGN_OR_RETURN(ev.run, r.U64());
        HT_ASSIGN_OR_RETURN(const uint32_t rank, r.U32());
        ev.rank = static_cast<int>(rank);
        HT_ASSIGN_OR_RETURN(const uint32_t ok, r.U32());
        d.received = true;
        d.ok = ok != 0;
        HT_ASSIGN_OR_RETURN(d.error, r.Str());
        HT_ASSIGN_OR_RETURN(d.correct, r.U64());
        HT_ASSIGN_OR_RETURN(d.total, r.U64());
        return Status::OK();
      }
      default:
        return Status::Invalid(std::string("coordinator: unexpected ") +
                               MsgTypeName(type));
    }
  }();
  if (!st.ok()) {
    req.reply_error(st);
  } else if (ev.rank < 0 || ev.rank >= cfg_.num_workers) {
    req.reply_error(Status::Invalid(std::string(MsgTypeName(type)) +
                                    " from unknown rank"));
  } else {
    ev.reply = std::move(req.reply);
    Enqueue(std::move(ev));
  }
}

void ClusterCoordinator::OnPeerDeath(int rank, const std::string& why) {
  if (rank < 0 || rank >= cfg_.num_workers) return;
  // The transport reports EOF or heartbeat silence; verify against the OS
  // before declaring death — an injected disconnect severs a connection
  // while the process is perfectly alive. ProbePidDead handles both our
  // children and re-attached workers inherited from a predecessor.
  std::atomic<pid_t>& pid = workers_[rank].pid;
  pid_t p = pid.load();
  if (p > 0 && !PidDiesWithin(p, kExitGraceSeconds)) {
    if (transport_->SecondsSinceContact(rank) < cfg_.peer_timeout_s) {
      // Alive and recently heard from: spurious report (severed conn).
      transport_->WatchPeer(rank);  // re-arm
      return;
    }
    // Alive but silent past the timeout: treat as hung, make it true.
    KillPidAndWait(p);
  }
  if (p > 0) pid.compare_exchange_strong(p, -1);  // reaped: never probe again
  // The coordinator may be blocked in a Call to the dead rank right now;
  // fail it at once so the next pump acts on the death.
  transport_->FailPeer(rank);
  Event ev;
  ev.kind = Event::Kind::kDeath;
  ev.rank = rank;
  ev.text = why;
  Enqueue(std::move(ev));
}

std::vector<ClusterCoordinator::Event> ClusterCoordinator::TakeEvents() {
  std::vector<Event> batch;
  std::lock_guard<std::mutex> lk(events_mu_);
  batch.swap(events_);
  return batch;
}

void ClusterCoordinator::Enqueue(Event ev) {
  {
    std::lock_guard<std::mutex> lk(events_mu_);
    events_.push_back(std::move(ev));
  }
  events_cv_.notify_one();
}

// ---- The coordinator thread: the pump and its events ------------------------

ClusterCoordinator::Wake ClusterCoordinator::Pump(
    double deadline, const std::function<bool()>& ready) {
  // The crash drill (ClusterConfig::coord_crash_epoch).
  const auto drill = [this] {
    const bool due =
        !crashed_ && run_->run != 0 && !run_->eval &&
        run_->epoch == cfg_.coord_crash_epoch &&
        (run_->done_count >=
             std::min(cfg_.coord_crash_done, cfg_.num_workers) ||
         !run_->deaths.empty());
    if (!due) return false;
    HT_LOG(WARNING) << "coordinator crash drill: simulating crash in run "
                    << run_->run << " (epoch " << run_->epoch << ", "
                    << run_->done_count << " reports, " << run_->deaths.size()
                    << " deaths)";
    Crash();
    return true;
  };
  for (;;) {
    if (drill()) return Wake::kCrashed;
    for (Event& ev : TakeEvents()) {
      Apply(ev);
      if (drill()) return Wake::kCrashed;
    }
    if (SigtermRequested()) return Wake::kSigterm;
    if (ready()) return Wake::kReady;
    const double left = deadline - NowS();
    if (left <= 0.0) return Wake::kTimeout;
    std::unique_lock<std::mutex> lk(events_mu_);
    events_cv_.wait_for(
        lk, std::chrono::duration<double>(std::min(left, kPumpTickSeconds)),
        [this] { return !events_.empty(); });
  }
}

void ClusterCoordinator::Apply(Event& ev) {
  WorkerProc& wp = workers_[ev.rank];
  std::string ack;
  switch (ev.kind) {
    case Event::Kind::kHello: {
      wp.addr = std::move(ev.text);
      wp.hello = true;
      // Membership is a cluster decision: journal it so a successor can
      // find (or verify dead) this worker. Duplicate re-registrations are
      // idempotent — the journal replay keeps the last record per rank.
      (void)JournalAppend(JournalRecordType::kMember, MemberRecord(ev.rank));
      // The ack advertises this coordinator's fencing term.
      WireWriter w;
      w.U64(term_);
      ack = w.Take();
      break;
    }
    case Event::Kind::kEpochDone: {
      // The !received guard dedups: after an adoption both the adopter and
      // a late original can report the same rank — first result wins.
      const bool accept = ev.run == run_->run && !run_->eval &&
                          !run_->done[ev.rank].received;
      // A survivor's resent report can reach a successor BEFORE the
      // adopting RunEpoch opens the resumed run; dropping it here would
      // lose the contribution forever (the ack stops the resend loop).
      const bool stash = !accept && resume_run_ != 0 &&
                         ev.run == resume_run_ &&
                         resume_reports_.count(ev.rank) == 0;
      if (!accept && !stash) break;
      // WAL ordering: the raw report must be durable BEFORE the ack — an
      // acknowledged contribution has to survive a coordinator crash, or
      // the worker would consider it delivered and never resend.
      WireWriter jw;
      jw.U64(ev.run);
      jw.U32(static_cast<uint32_t>(ev.rank));
      jw.Str(ev.text);
      (void)JournalAppend(JournalRecordType::kDoneReport, jw.Take());
      if (stash) {
        resume_reports_.emplace(ev.rank, std::move(ev.text));
        break;
      }
      run_->done[ev.rank] = std::move(ev.report);
      if (++run_->done_count == cfg_.num_workers &&
          run_->epoch == cfg_.coord_kill_epoch) {
        // Process-level drill: die with the whole epoch journaled but NOT
        // acked, applied, or checkpointed — the worst spot for a successor.
        HT_LOG(WARNING) << "coordinator kill drill: last kEpochDone of epoch "
                        << run_->epoch << " journaled — raising SIGKILL";
        ::raise(SIGKILL);
      }
      break;
    }
    case Event::Kind::kEvalDone:
      if (ev.run == run_->run && run_->eval &&
          !run_->done[ev.rank].received) {
        run_->done[ev.rank] = std::move(ev.report);
        ++run_->done_count;
      }
      break;
    case Event::Kind::kDeath: {
      // A rank without a hello is being (re)started, or was already made
      // dead by the watchdog: the report belongs to a retired process.
      if (wp.dead || !wp.hello) break;
      wp.dead = true;
      wp.hello = false;
      degrade_.Record(fault::DegradeEvent::kPeerDeath,
                      "worker r" + std::to_string(ev.rank) + ": " + ev.text);
      LogRecoveryEvent("peer_death", term_, ev.rank, 0.0, ev.text);
      WireWriter w;
      w.U32(static_cast<uint32_t>(ev.rank));
      (void)JournalAppend(JournalRecordType::kMemberDead, w.Take());
      if (run_->run != 0) run_->deaths.emplace_back(ev.rank, ev.text);
      break;
    }
  }
  if (ev.reply) ev.reply(MsgType::kAck, std::move(ack));
}

Status ClusterCoordinator::Stop(Wake w) {
  if (w == Wake::kCrashed) {
    return Status::Unavailable("coordinator crash drill");
  }
  HT_LOG(INFO) << "cluster coordinator: SIGTERM — draining and shutting down";
  Shutdown();
  return Status::Internal("coordinator terminated by SIGTERM");
}

Status ClusterCoordinator::EnsureWorkersAlive() {
  for (int r = 0; r < cfg_.num_workers; ++r) {
    if (!workers_[r].dead) continue;
    HT_RETURN_IF_ERROR(Respawn(r));
    HT_LOG(INFO) << "cluster coordinator: respawned worker r" << r
                 << " (respawn #" << respawns_ << ")";
  }
  return Status::OK();
}

std::string ClusterCoordinator::BuildWeightsPayloadTail() {
  WireWriter w;
  w.U32(static_cast<uint32_t>(cfg_.num_workers));
  for (int r = 0; r < cfg_.num_workers; ++r) w.Str(workers_[r].addr);
  auto params = model_.AllParams();
  w.U32(static_cast<uint32_t>(params.size()));
  for (Tensor* p : params) {
    w.U64(static_cast<uint64_t>(p->rows()));
    w.U64(static_cast<uint64_t>(p->cols()));
    w.Bytes(p->data(), static_cast<size_t>(p->size()) * sizeof(float));
  }
  return w.Take();
}

Status ClusterCoordinator::BroadcastRun(uint32_t arg) {
  // WAL: the run start (id + epoch) goes down before any worker can observe
  // the run, so a successor knows which run may be in flight. Eval runs are
  // journaled too: a successor must never reuse a run id a worker has seen.
  WireWriter jw;
  jw.U64(run_->run);
  jw.U64(static_cast<uint64_t>(run_->eval ? 0 : run_->epoch));
  jw.U32(run_->eval ? 1 : 0);
  (void)JournalAppend(JournalRecordType::kRunStart, jw.Take());
  const std::string tail = BuildWeightsPayloadTail();
  for (int r = 0; r < cfg_.num_workers; ++r) {
    HT_RETURN_IF_ERROR(SendRun(r, arg, tail));
  }
  return Status::OK();
}

Status ClusterCoordinator::SendRun(int rank, uint32_t arg,
                                   const std::string& tail) {
  // kEpoch{run, epoch, recover} or kEval{run, split}, then the run tail.
  const MsgType type = run_->eval ? MsgType::kEval : MsgType::kEpoch;
  WireWriter w;
  w.U64(run_->run);
  if (!run_->eval) w.U64(static_cast<uint64_t>(run_->epoch));
  w.U32(arg);
  w.Bytes(tail.data(), tail.size());
  auto cr = transport_->Call(rank, type, w.Take(), cfg_.rpc_deadline_s);
  if (!cr.ok()) {
    return Status::Unavailable(std::string(MsgTypeName(type)) +
                               " to worker r" + std::to_string(rank) +
                               " failed: " + cr.status().ToString());
  }
  return Status::OK();
}

void ClusterCoordinator::OpenRun(uint64_t run, bool eval) {
  run_->run = run;
  run_->eval = eval;
  run_->epoch = epochs_completed_;
  run_->done_count = 0;
  run_->deaths.clear();
  for (auto& d : run_->done) d = DoneReport{};
}

bool ClusterCoordinator::RunDecided() const {
  if (!run_->deaths.empty() || run_->done_count == cfg_.num_workers) {
    return true;
  }
  // A worker reporting failure decides the attempt early — its peers may
  // be blocked on it and would only fall to the watchdog.
  for (const auto& d : run_->done) {
    if (d.received && !d.ok) return true;
  }
  return false;
}

Status ClusterCoordinator::CheckReports(uint64_t run, const char* what) {
  for (int r = 0; r < cfg_.num_workers; ++r) {
    const DoneReport& d = run_->done[r];
    if (!d.received) {
      return Status::Internal("worker r" + std::to_string(r) +
                              " never reported " + what + " (run " +
                              std::to_string(run) + ")");
    }
    if (!d.ok) {
      return Status::Unavailable("worker r" + std::to_string(r) +
                                 " reported " + what + " failure: " + d.error);
    }
  }
  return Status::OK();
}

std::string ClusterCoordinator::KillWedged() {
  std::string wedged;
  for (int r = 0; r < cfg_.num_workers; ++r) {
    if (run_->done[r].received || workers_[r].dead) continue;
    wedged += " r" + std::to_string(r);
    transport_->UnwatchPeer(r);
    const pid_t p = workers_[r].pid.exchange(-1);
    if (p > 0) KillPidAndWait(p);
    workers_[r].dead = true;
    workers_[r].hello = false;
    degrade_.Record(fault::DegradeEvent::kPeerDeath,
                    "epoch watchdog killed wedged worker r" +
                        std::to_string(r));
  }
  return wedged;
}

void ClusterCoordinator::BroadcastPeerUpdate(int rank,
                                             const std::string& addr) {
  for (int r = 0; r < cfg_.num_workers; ++r) {
    if (r == rank || workers_[r].dead || !workers_[r].hello) continue;
    WireWriter w;
    w.U64(run_->run);
    w.U32(static_cast<uint32_t>(rank));
    w.Str(addr);
    auto cr = transport_->Call(r, MsgType::kPeerUpdate, w.Take(),
                               cfg_.rpc_deadline_s);
    if (!cr.ok()) {
      // Tolerated: the target may itself be dying (the kill-during-recovery
      // drill dies exactly here). Its verified death fails this call at
      // once and reaches the run at the next pump.
      HT_LOG(WARNING) << "cluster coordinator: kPeerUpdate(r" << rank
                      << ") to r" << r << " failed: "
                      << cr.status().ToString();
    }
  }
}

Status ClusterCoordinator::RecoverRespawn(int rank) {
  // First broadcast carries the OLD address: its purpose is the grace
  // extension — survivors' wait budgets must not expire during the seconds
  // the respawn takes. The real address follows after the hello.
  BroadcastPeerUpdate(rank, workers_[rank].addr);
  HT_RETURN_IF_ERROR(Respawn(rank));
  ++step_recoveries_;
  const std::string run = std::to_string(run_->run);
  degrade_.Record(fault::DegradeEvent::kStepRecovery,
                  "respawned worker r" + std::to_string(rank) +
                      " for in-epoch replay (run " + run + ")");
  BroadcastPeerUpdate(rank, workers_[rank].addr);
  HT_LOG(INFO) << "cluster coordinator: step recovery — replaying r" << rank
               << " in run " << run;
  // A fresh tail: the addresses changed since the broadcast. The weights
  // are still the epoch head (Adam steps only after the epoch completes),
  // the state every worker started this run from.
  return SendRun(rank, /*recover=*/1, BuildWeightsPayloadTail());
}

Status ClusterCoordinator::RecoverAdopt(int rank) {
  int host = -1;
  for (int r = 0; r < cfg_.num_workers && host < 0; ++r) {
    if (r != rank && !workers_[r].dead && workers_[r].hello) host = r;
  }
  if (host < 0) {
    return Status::Unavailable("no survivor available to adopt partition r" +
                               std::to_string(rank));
  }
  // Grace extension first, same as the respawn path.
  BroadcastPeerUpdate(rank, workers_[rank].addr);
  transport_->DropConnection(rank);
  // The dead rank's traffic now routes to the host process. The slot stays
  // marked dead so EnsureWorkersAlive gives it a fresh process at the next
  // epoch.
  const std::string host_addr = workers_[host].addr;
  workers_[rank].addr = host_addr;
  const std::string tail = BuildWeightsPayloadTail();
  WireWriter w;
  w.U64(run_->run);
  w.U64(static_cast<uint64_t>(run_->epoch));
  w.U32(static_cast<uint32_t>(rank));
  w.Bytes(tail.data(), tail.size());
  auto cr = transport_->Call(host, MsgType::kAdoptPartition, w.Take(),
                             cfg_.rpc_deadline_s);
  if (!cr.ok()) {
    return Status::Unavailable("kAdoptPartition(r" + std::to_string(rank) +
                               ") to r" + std::to_string(host) +
                               " failed: " + cr.status().ToString());
  }
  transport_->SetPeer(rank, host_addr);  // no WatchPeer: it's host's process
  ++adoptions_;
  ++step_recoveries_;
  const std::string run = std::to_string(run_->run);
  degrade_.Record(fault::DegradeEvent::kPartitionAdopted,
                  "partition r" + std::to_string(rank) + " adopted by r" +
                      std::to_string(host) + " (run " + run + ")");
  HT_LOG(INFO) << "cluster coordinator: partition r" << rank
               << " adopted by survivor r" << host << " in run " << run;
  BroadcastPeerUpdate(rank, host_addr);
  return Status::OK();
}

void ClusterCoordinator::NotifyAbort(uint64_t run) {
  WireWriter w;
  w.U64(run);
  for (int r = 0; r < cfg_.num_workers; ++r) {
    if (workers_[r].dead) continue;
    (void)transport_->Notify(r, MsgType::kAbort, w.buf());
  }
}

Status ClusterCoordinator::AbortAndRestore(uint64_t run,
                                           const std::string& why) {
  degrade_.Record(fault::DegradeEvent::kEpochRestart, why);
  LogRecoveryEvent("epoch_restart", term_, -1, 0.0, why);
  NotifyAbort(run);
  HT_ASSIGN_OR_RETURN(const int64_t ck_epoch, ckpt_->Restore(&model_, &adam_));
  HT_LOG(INFO) << "cluster coordinator: restored checkpoint (epoch "
               << ck_epoch << ") after: " << why;
  return Status::OK();
}

void ClusterCoordinator::SaveCheckpointResilient(int64_t epoch) {
  const fault::RetryPolicy pol = fault::DefaultRetryPolicy();
  const Status st =
      fault::RetryTransient(pol, &degrade_, "ckpt.save", [&]() -> Status {
        return ckpt_->Save(&model_, adam_, epoch);
      });
  if (!st.ok()) {
    // The epoch's weights are applied and live on the workers; losing the
    // snapshot only widens the restore distance of a FUTURE failure. Degrade
    // instead of failing a finished epoch.
    degrade_.Record(fault::DegradeEvent::kCheckpointFallback,
                    "epoch-end save failed; continuing on previous "
                    "checkpoint: " + st.ToString());
    HT_LOG(WARNING) << "cluster coordinator: checkpoint save for epoch "
                    << epoch << " failed (continuing): " << st.ToString();
  }
}

Result<ClusterEpochResult> ClusterCoordinator::RunEpoch() {
  if (shut_down_) return Status::Internal("coordinator is shut down");
  if (crashed_) return Status::Unavailable("coordinator crashed (drill)");
  degrade_.ResetEpoch();
  const double t0 = NowS();
  const int sr0 = step_recoveries_;
  const int ad0 = adoptions_;
  const double rs0 = recovery_seconds_;
  Status last = Status::OK();
  for (int attempt = 0; attempt < cfg_.max_epoch_attempts; ++attempt) {
    // Apply what is queued first: a death verified since the last pump
    // must mark its rank dead before EnsureWorkersAlive looks.
    const Wake w0 = Pump(0.0, [] { return true; });
    if (w0 != Wake::kReady) return Stop(w0);
    // Adoption: the first epoch after a journal resume continues the
    // in-flight run under its ORIGINAL id — journaled reports are adopted
    // verbatim, live workers finish and deliver to this incarnation.
    const bool adopting =
        attempt == 0 && resume_run_ != 0 && resume_epoch_ == epochs_completed_;
    if (!adopting) HT_RETURN_IF_ERROR(EnsureWorkersAlive());
    const uint64_t run = adopting ? resume_run_ : next_run_++;
    OpenRun(run, /*eval=*/false);
    Status st = Status::OK();
    if (adopting) {
      int prefilled = 0;
      for (const auto& kv : resume_reports_) {
        uint64_t prun = 0;
        int prank = -1;
        DoneReport d;
        if (!DecodeEpochDone(kv.second, &prun, &prank, &d).ok()) continue;
        if (prun != run || prank != kv.first || prank < 0 ||
            prank >= cfg_.num_workers || run_->done[prank].received) {
          continue;
        }
        run_->done[prank] = std::move(d);
        ++run_->done_count;
        ++prefilled;
      }
      HT_LOG(INFO) << "cluster coordinator: adopted run " << run << " (epoch "
                   << epochs_completed_ << ") from journal — " << prefilled
                   << " reports prefilled, " << rejoin_ranks_.size()
                   << " ranks to rejoin";
      // Ranks that never entered (or already left) the adopted run replay
      // into it exactly like a step recovery; survivors' logs serve them.
      for (const int r : rejoin_ranks_) {
        // The rank's report may have raced in between re-attach and now
        // (its run id matched all along) — nothing to replay then.
        if (run_->done[r].received) continue;
        const double r0 = NowS();
        BroadcastPeerUpdate(r, workers_[r].addr);
        st = SendRun(r, /*recover=*/1, BuildWeightsPayloadTail());
        if (!st.ok()) break;
        recovery_seconds_ += NowS() - r0;
        ++step_recoveries_;
        degrade_.Record(fault::DegradeEvent::kStepRecovery,
                        "rejoined r" + std::to_string(r) +
                            " into resumed run " + std::to_string(run));
        LogRecoveryEvent("coord_rejoin", term_, r, NowS() - r0,
                         "replaying into resumed run " + std::to_string(run));
      }
      resume_run_ = 0;
      resume_epoch_ = -1;
      resume_reports_.clear();
      rejoin_ranks_.clear();
    } else {
      st = BroadcastRun(/*recover=*/0);
    }
    int recoveries = 0;
    while (st.ok()) {
      const Wake w = Pump(NowS() + cfg_.epoch_deadline_s,
                          [this] { return RunDecided(); });
      if (w == Wake::kTimeout) {
        st = Status::Unavailable("epoch watchdog expired (run " +
                                 std::to_string(run) +
                                 "), killed:" + KillWedged());
        break;
      }
      if (w != Wake::kReady) return Stop(w);
      if (run_->deaths.empty()) break;  // every report is in
      const auto [dead, why] = run_->deaths.front();
      run_->deaths.pop_front();
      // A death. Try to recover in-epoch; fall back to the epoch ladder
      // when the mode forbids it, the per-epoch budget is spent, or the
      // recovery itself fails.
      if (cfg_.recover_mode == "epoch" ||
          recoveries >= cfg_.max_step_recoveries) {
        st = Status::Unavailable("worker r" + std::to_string(dead) +
                                 " died mid-run: " + why);
        break;
      }
      const double r0 = NowS();
      const Status rst = cfg_.recover_mode == "adopt"
                             ? RecoverAdopt(dead)
                             : RecoverRespawn(dead);
      recovery_seconds_ += NowS() - r0;
      // A pump inside the rung (the respawn's hello wait) crashed the
      // coordinator or shut it down: nothing may touch the cluster now.
      if (crashed_ || shut_down_) return rst;
      if (!rst.ok()) {
        st = Status::Unavailable("in-epoch recovery of r" +
                                 std::to_string(dead) +
                                 " failed: " + rst.ToString());
        break;
      }
      LogRecoveryEvent(
          cfg_.recover_mode == "adopt" ? "adoption" : "step_recovery", term_,
          dead, NowS() - r0, why);
      ++recoveries;
    }
    if (st.ok()) st = CheckReports(run, "epoch");
    if (!st.ok()) {
      last = st;
      HT_LOG(WARNING) << "cluster epoch attempt " << (attempt + 1)
                      << " failed: " << st.ToString();
      HT_RETURN_IF_ERROR(AbortAndRestore(run, st.ToString()));
      continue;
    }
    run_->run = 0;
    const std::vector<DoneReport>& done = run_->done;

    // Deterministic gradient reduction: rank 0's gradients, plus ranks
    // 1..W-1 in rank order — the float ops of HongTuEngine's device-order
    // all-reduce (starting from zero would turn a -0.0 into +0.0) — then one
    // Adam step on the authoritative replica.
    auto grads = model_.AllGrads();
    for (int r = 0; r < cfg_.num_workers; ++r) {
      if (done[r].grads.size() != grads.size()) {
        return Status::Internal("worker r" + std::to_string(r) +
                                " returned " +
                                std::to_string(done[r].grads.size()) +
                                " gradient tensors, expected " +
                                std::to_string(grads.size()));
      }
      for (size_t gi = 0; gi < grads.size(); ++gi) {
        const std::vector<float>& src = done[r].grads[gi];
        if (static_cast<int64_t>(src.size()) != grads[gi]->size()) {
          return Status::Internal("gradient shape mismatch from worker r" +
                                  std::to_string(r));
        }
        float* dst = grads[gi]->data();
        if (r == 0) {
          std::memcpy(dst, src.data(), src.size() * sizeof(float));
        } else {
          for (size_t i = 0; i < src.size(); ++i) dst[i] += src[i];
        }
      }
    }
    std::vector<const Tensor*> cgrads(grads.begin(), grads.end());
    HT_RETURN_IF_ERROR(adam_.Step(cgrads));
    ++epochs_completed_;
    SaveCheckpointResilient(epochs_completed_);
    // WAL: the applied pointer settles the run (a successor will NOT replay
    // it), then compaction drops the now-dead prefix.
    {
      WireWriter jw;
      jw.U64(static_cast<uint64_t>(epochs_completed_));
      jw.Str(ckpt_->PrimaryPath());
      (void)JournalAppend(JournalRecordType::kApplied, jw.Take());
    }
    JournalCompact();

    ClusterEpochResult res;
    for (const auto& d : done) {
      res.loss += d.loss;
      res.train_accuracy += d.accuracy;
    }
    res.wall_seconds = NowS() - t0;
    res.step_recoveries = step_recoveries_ - sr0;
    res.adoptions = adoptions_ - ad0;
    res.recovery_seconds = recovery_seconds_ - rs0;
    res.recovery = degrade_.SnapshotEpoch();
    for (const auto& d : done) {
      for (int e = 0; e < fault::kNumDegradeEvents; ++e) {
        res.recovery.counts[e] += d.rec.counts[e];
      }
    }
    return res;
  }
  return Status::Internal("cluster epoch failed after " +
                          std::to_string(cfg_.max_epoch_attempts) +
                          " attempts; last error: " + last.ToString());
}

Result<double> ClusterCoordinator::Evaluate(SplitRole role) {
  if (shut_down_) return Status::Internal("coordinator is shut down");
  if (crashed_) return Status::Unavailable("coordinator crashed (drill)");
  Status last = Status::OK();
  for (int attempt = 0; attempt < cfg_.max_epoch_attempts; ++attempt) {
    const Wake w0 = Pump(0.0, [] { return true; });
    if (w0 != Wake::kReady) return Stop(w0);
    HT_RETURN_IF_ERROR(EnsureWorkersAlive());
    const uint64_t run = next_run_++;
    OpenRun(run, /*eval=*/true);
    Status st = BroadcastRun(static_cast<uint32_t>(role));
    if (st.ok()) {
      // Eval is forward-only and cheap: a death mid-eval just reruns it
      // (no in-epoch replay, no checkpoint restore — weights are intact).
      const Wake w = Pump(NowS() + cfg_.epoch_deadline_s,
                          [this] { return RunDecided(); });
      if (w == Wake::kTimeout) {
        st = Status::Unavailable("eval watchdog expired (run " +
                                 std::to_string(run) +
                                 "), killed:" + KillWedged());
      } else if (w != Wake::kReady) {
        return Stop(w);
      } else if (!run_->deaths.empty()) {
        st = Status::Unavailable("worker r" +
                                 std::to_string(run_->deaths.front().first) +
                                 " died mid-eval: " +
                                 run_->deaths.front().second);
      }
    }
    uint64_t correct = 0, total = 0;
    if (st.ok()) {
      st = CheckReports(run, "eval");
      for (const DoneReport& d : run_->done) {
        correct += d.correct;
        total += d.total;
      }
    }
    run_->run = 0;
    if (!st.ok()) {
      last = st;
      HT_LOG(WARNING) << "cluster eval attempt " << (attempt + 1)
                      << " failed: " << st.ToString();
      NotifyAbort(run);
      continue;
    }
    return total == 0 ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(total);
  }
  return Status::Internal("cluster eval failed after " +
                          std::to_string(cfg_.max_epoch_attempts) +
                          " attempts; last error: " + last.ToString());
}

void ClusterCoordinator::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // After Crash() a successor coordinator owns the workers and the on-disk
  // state — touch nothing.
  if (crashed_) return;
  if (transport_ != nullptr) {
    for (int r = 0; r < static_cast<int>(workers_.size()); ++r) {
      transport_->UnwatchPeer(r);
    }
    for (int r = 0; r < static_cast<int>(workers_.size()); ++r) {
      if (!workers_[r].dead && workers_[r].pid.load() > 0) {
        (void)transport_->Notify(r, MsgType::kShutdown, "");
      }
    }
  }
  // Grace period, then force: never leak worker processes. ProbePidDead
  // covers re-attached workers that are not this process's children.
  const double t_end = NowS() + 3.0;
  for (;;) {
    bool any = false;
    for (auto& wp : workers_) {
      pid_t p = wp.pid.load();
      if (p <= 0) continue;
      if (ProbePidDead(p)) {
        wp.pid.compare_exchange_strong(p, -1);
      } else {
        any = true;
      }
    }
    if (!any || NowS() >= t_end) break;
    // Keep acking: a worker still inside a run reads its kShutdown only
    // after its done report is acked.
    for (Event& ev : TakeEvents()) Apply(ev);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (auto& wp : workers_) {
    const pid_t p = wp.pid.exchange(-1);
    if (p > 0) KillPidAndWait(p);
  }
  if (transport_ != nullptr) transport_->Shutdown();
  if (owns_runtime_dir_) RemoveDirShallow(cfg_.runtime_dir);
}

}  // namespace net
}  // namespace hongtu
