/// \file cluster.h
/// \brief Real multi-process CPU-cluster training: coordinator, workers,
/// and the crash-recovery ladder.
///
/// `HONGTU_CLUSTER=tcp|uds` turns the CpuClusterEngine from an analytic
/// model into a real distributed run: the coordinator process forks one
/// worker per partition (re-exec'ing `/proc/self/exe` with
/// `HONGTU_DIST_ROLE=worker`), and the workers train the model over the
/// resilient RPC transport (net/transport.h).
///
/// ## Topology and protocol
///
/// Ranks 0..W-1 are workers; rank W is the coordinator. Every process
/// rebuilds the dataset, the 2-level partition and the dedup plan
/// deterministically from the serialized `ClusterConfig`, so the only
/// things that ever cross the wire are vertex-row payloads, gradients and
/// model parameters:
///
///   - Each worker is a HongTuEngine hosting its own partition's device
///     (HongTuEngine::CreateHosting) that moves rows through an RpcComm
///     (net/rpc_comm.h). Per epoch the coordinator broadcasts
///     `kEpoch{run, weights}`; workers run the engine's forward, loss and
///     backward, exchanging transition rows (`kFetchRows`) and gradient
///     pushes (`kGradPush`) along the owner-grouped FetchPlan arrays, and
///     reply `kEpochDone{loss, param grads}`. The coordinator sums them in
///     rank order starting from rank 0's — the engine's device-order
///     all-reduce — applies Adam, and saves an HTCK checkpoint.
///   - Step synchronization is data-driven: when an owner publishes its
///     transition buffer for step s it immediately logs the serialized
///     fetch response for every expected fetcher of s, keyed by
///     (step, fetcher), and serves all fetches from that log — never from
///     the live slots. Slot reuse therefore needs no gate, a retried
///     request after a lost response replays the identical bytes, and a
///     replaying peer can be served any step of the epoch. Gradient pushes
///     are buffered by (step, sender) and applied in rank order, so
///     accumulation order — and therefore the final weights — is identical
///     across runs.
///
/// ## Failure model and recovery ladder
///
/// Workers heartbeat the coordinator; the coordinator watches them
/// (net/transport.h liveness) and verifies a reported death with waitpid.
/// When a worker dies mid-epoch (SIGKILL, crash, or hang past the peer
/// timeout), recovery proceeds at the finest rung that applies
/// (`ClusterConfig::recover_mode`):
///
///   1. **Step-granular replay** (`recover_mode = "step"`, the default).
///      The epoch does NOT abort. Survivors keep every fetch response and
///      outbound gradient push they produced this run in per-(step, peer)
///      logs, so the dead rank's entire observable history is replayable.
///      The coordinator respawns the rank, announces it to survivors
///      (`kPeerUpdate`, which also extends their wait deadlines by
///      `recovery_grace_s`), and re-sends `kEpoch` with a recover flag and
///      the *same* run id and epoch-head weights. The respawned worker
///      asks each peer for its push watermark (`kSyncState`: the highest
///      step the peer had already pushed to the dead process), then simply
///      re-executes the epoch from step 0: fetches are re-served
///      bit-identically from the peers' logs, the replayed rank's own
///      re-pushes are dropped by the receivers' applied-step guard, and
///      pushes at or below a peer's watermark are re-pulled from its
///      outbound log via `kFetchPush` (the rest arrive live). Replay cost
///      is bounded by the dead rank's own work — the survivors never
///      rewind. (DegradeEvent::kPeerDeath + kStepRecovery; no
///      kEpochRestart.)
///   2. **Survivor takeover** (`recover_mode = "adopt"`). Same replay
///      contract, but instead of respawning a process the coordinator
///      sends `kAdoptPartition` to a survivor, which instantiates a second
///      rank state in-process (with the dead rank's own engine; all peer
///      requests carry an owner rank so one process can serve many ranks)
///      and replays the dead partition on a separate thread. The dead rank
///      gets a fresh process again at the next epoch.
///   3. **Epoch restart** (`recover_mode = "epoch"` — the PR 8 ladder, and
///      the fallback when a step recovery itself fails or
///      `max_step_recoveries` is exceeded): the epoch aborts (`kAbort`),
///      the coordinator restores model+Adam from the latest checkpoint
///      (DegradeEvent::kEpochRestart), respawns the dead rank, and reruns
///      the epoch.
///
/// Because every epoch is deterministic given its starting weights — and a
/// replayed rank consumes byte-identical fetch responses and re-applies
/// pushes in the same rank order — the final weights after a kill+recover
/// run are bitwise identical to an unkilled run on every rung.
///
/// ## Coordinator fault tolerance (term fencing + write-ahead journal)
///
/// The coordinator is no longer a single point of failure. Every cluster
/// decision that must survive its death — the fencing term, membership
/// (rank, address, pid), run starts, each worker's raw kEpochDone report
/// (fsynced *before* the ack), and the applied-epoch/checkpoint pointer —
/// is appended to a CRC32C-framed write-ahead journal
/// (`<checkpoint_dir>/cluster.journal`, net/journal.h). A successor started
/// with `ClusterConfig::resume` replays it and walks its own rung ladder:
///
///   1. **Park**: workers detect coordinator silence (coordinator→worker
///      heartbeats plus connection EOF), keep serving peer RPCs and keep
///      retrying their pending report, bounded by `coord_lease_s`
///      (`HONGTU_COORD_LEASE_MS`); at lease expiry they exit, so orphans
///      are time-bounded.
///   2. **Re-attach**: the successor bumps the term (strictly above every
///      journaled term), contacts each journaled member (`kCoordUpdate`
///      with the new term + endpoint), and adopts survivors in place;
///      verified-dead members are respawned and replayed into the resumed
///      run exactly like a worker step recovery.
///   3. **Journal replay**: the in-flight run is adopted under its original
///      run id — journaled reports prefill the done slots, live workers
///      finish and deliver to the successor — so completed work is never
///      redone and the result is bitwise identical to an unkilled run.
///   4. **Checkpoint fallback**: a damaged journal degrades to the PR 8
///      floor — restore the latest HTCK checkpoint, fresh workers, rerun
///      the epoch (still bitwise identical, just costlier).
///
/// Fencing: every outbound frame carries the sender's coordinator term
/// (net/frame.h). Workers reject coordinator *commands* whose term is below
/// the highest they have seen with a non-transient error, so a zombie
/// coordinator fences itself out on its first retry. Peer data RPCs are
/// run-gated, not term-gated.
///
/// ## Coordinator loop
///
/// One thread owns the coordinator: the thread that calls Start, RunEpoch,
/// Evaluate and Shutdown. It alone touches the worker table, the active
/// run's done slots, the resume state, the counters and the journal. The
/// transport threads only decode, validate and enqueue; the event queue's
/// lock is the one lock they share with it. There are four events:
///
///   - **hello** (a worker's address): recorded, journaled as membership,
///     then acked with the fencing term;
///   - **epoch-done** (a decoded kEpochDone and its reply closure):
///     journaled first and acked second, so the write-ahead order holds;
///     the `coord_kill_epoch` drill's SIGKILL lands between the two;
///   - **eval-done**;
///   - **verified death**. The death callback verifies on its own thread:
///     it reads the rank's pid from an atomic and reaps each pid once. A
///     pid that is alive and was heard from within the peer timeout makes
///     a spurious report, which only re-arms the watch (a severed
///     connection); an alive but silent one is killed. A verified death
///     also fails every in-flight and later Transport::Call to the rank at
///     once (Transport::FailPeer), until the next SetPeer for it.
///
/// `Pump(deadline, ready)` is the coordinator's one wait: it applies every
/// queued event in order, and it is the one place that checks SIGTERM,
/// the run watchdog and the crash drill. The hello wait, the run wait and
/// the drill are predicates on it. A recovery rung therefore never waits
/// behind a call to a rank that has died: the call returns as soon as the
/// death is verified, the rung returns, and the next pump acts on the
/// death. Recovery latency is bounded by death detection, not by
/// `rpc_deadline_s`. The crash drill is a predicate checked after every
/// applied event (see ClusterConfig::coord_crash_epoch). Shutdown keeps
/// applying events while it waits for the workers to exit, so a worker
/// still inside a run gets its report acked and reads its kShutdown.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "hongtu/common/fault.h"
#include "hongtu/common/status.h"
#include "hongtu/engine/checkpoint.h"
#include "hongtu/gnn/model.h"
#include "hongtu/graph/datasets.h"
#include "hongtu/kernels/codec.h"
#include "hongtu/net/journal.h"
#include "hongtu/net/transport.h"
#include "hongtu/tensor/adam.h"

namespace hongtu {
namespace net {

// Environment variables of the worker re-exec contract.
inline constexpr const char* kEnvDistRole = "HONGTU_DIST_ROLE";
inline constexpr const char* kEnvDistRank = "HONGTU_DIST_RANK";
inline constexpr const char* kEnvDistCoord = "HONGTU_DIST_COORD";
inline constexpr const char* kEnvDistConfig = "HONGTU_DIST_CONFIG";
/// Failure drill: the worker raises SIGKILL between forward and backward
/// of this (0-based) epoch — a deterministic "kill -9 mid-epoch".
inline constexpr const char* kEnvDistKillEpoch = "HONGTU_DIST_KILL_EPOCH";
/// Failure drill: the worker raises SIGKILL the first time it receives a
/// kPeerUpdate naming *another* rank — i.e. deterministically in the middle
/// of someone else's recovery (the double-fault drill).
inline constexpr const char* kEnvDistKillOnRecover = "HONGTU_DIST_KILL_ON_RECOVER";

/// Everything a worker needs to rebuild the exact training problem. All
/// fields (except the coordinator-side drill knobs) serialize into the
/// HONGTU_DIST_CONFIG environment variable; floating-point values travel
/// as bit patterns so the rebuild is bit-exact.
struct ClusterConfig {
  std::string transport = "uds";  ///< "tcp" (loopback) or "uds"
  int num_workers = 4;            ///< = partitions m; one process each

  std::string dataset;        ///< canonical dataset name
  double dataset_scale = 1.0;
  uint64_t dataset_seed = 42;

  GnnKind model_kind = GnnKind::kGcn;
  std::vector<int> model_dims;  ///< length L+1
  uint64_t model_seed = 1234;

  int chunks_per_partition = 4;
  int dedup_level = 2;  ///< DedupLevel as int; kNone (0) is rejected
  bool reorganize = true;
  uint64_t partition_seed = 7;
  kernels::CommPrecision wire = kernels::CommPrecision::kFp32;

  AdamOptions adam;

  /// Scratch directory for sockets (and checkpoints unless overridden).
  /// Empty: the coordinator mkdtemp()s one under TMPDIR and owns it.
  std::string runtime_dir;
  std::string checkpoint_dir;  ///< empty = runtime_dir

  double heartbeat_interval_s = 0.05;
  double peer_timeout_s = 2.0;
  /// Per-RPC total budget (transport reconnect-and-resend window, and the
  /// RetryTransient total deadline on the worker fetch/push paths).
  double rpc_deadline_s = 10.0;
  double epoch_deadline_s = 300.0;  ///< coordinator watchdog per attempt
  int max_epoch_attempts = 5;

  /// Recovery rung for a mid-epoch worker death: "step" (default, replay
  /// just the dead rank), "adopt" (a survivor hosts the dead partition), or
  /// "epoch" (the PR 8 abort-restore-rerun ladder). "step"/"adopt" fall
  /// back to the epoch ladder when replay itself fails.
  std::string recover_mode = "step";
  /// Extra slack added to every survivor-side wait deadline while a peer is
  /// being recovered (kPeerUpdate extends deadlines to now + this).
  double recovery_grace_s = 30.0;
  /// In-epoch recoveries allowed per epoch attempt before falling back to
  /// the epoch-restart ladder (not serialized; coordinator-side only).
  int max_step_recoveries = 8;

  /// Worker-side lease on a silent coordinator: a worker that detects the
  /// coordinator's death parks — keeps serving peer RPCs and retrying its
  /// pending report — and waits this long for a successor before exiting,
  /// so orphaned workers are time-bounded. `HONGTU_COORD_LEASE_MS` in the
  /// coordinator's environment overrides it cluster-wide.
  double coord_lease_s = 30.0;

  // ---- Coordinator restart (not serialized to workers). ------------------
  /// Resume a previous coordinator incarnation from `checkpoint_dir`:
  /// replay the cluster journal, bump the fencing term, re-attach live
  /// workers, respawn dead ones, and adopt the in-flight run (if any).
  /// Requires a stable checkpoint_dir across both incarnations.
  bool resume = false;
  /// Drill: the coordinator raises SIGKILL right after journaling the LAST
  /// kEpochDone report of this (0-based) epoch, *before* acking it — the
  /// process-level coordinator-kill smoke (ci/coordinator_kill_smoke.sh).
  int64_t coord_kill_epoch = -1;
  /// Drill (in-process), armed in the training run of this (0-based)
  /// epoch: once `coord_crash_done` reports of the run have been journaled,
  /// or at the first verified worker death, whichever comes first, the
  /// coordinator "crashes" (Crash(): transport torn down, journal fd
  /// closed, workers and on-disk state left intact) and RunEpoch returns
  /// kUnavailable. A second coordinator started with `resume` over the same
  /// directories adopts the cluster. The death trigger composes coordinator
  /// restart with worker recovery: the successor inherits the dead rank.
  int64_t coord_crash_epoch = -1;
  int coord_crash_done = 0;

  // ---- Coordinator-side failure drills (not serialized to workers). ------
  int kill_rank = -1;       ///< worker that gets kEnvDistKillEpoch
  int64_t kill_epoch = -1;  ///< epoch it self-SIGKILLs in
  int fault_rank = -1;      ///< worker that gets `worker_fault_spec`
  std::string worker_fault_spec;  ///< HONGTU_FAULT_SPEC for that worker
  int kill2_rank = -1;       ///< second drill rank (repeated-kill scenarios)
  int64_t kill2_epoch = -1;  ///< epoch the second rank self-SIGKILLs in
  /// This rank SIGKILLs itself when it sees another rank's kPeerUpdate —
  /// a deterministic kill-during-recovery double fault.
  int kill_on_recover_rank = -1;
};

/// Serializes the worker-visible fields for the env contract.
std::string EncodeClusterConfig(const ClusterConfig& cfg);
Result<ClusterConfig> DecodeClusterConfig(const std::string& s);

/// One worker's parsed kEpochDone/kEvalDone report.
struct EpochDoneReport {
  bool received = false;
  bool ok = false;
  std::string error;
  /// This rank's shares of the epoch's mean loss and train accuracy (its
  /// sums over the count of all train vertices), which add up to the means.
  double loss = 0.0, accuracy = 0.0;
  uint64_t n = 0;  ///< train vertices of this rank's partition
  uint64_t correct = 0, total = 0;
  fault::RecoveryCounters rec;
  std::vector<std::vector<float>> grads;
};

/// Decodes a kEpochDone payload into its run id, rank, and report. Each
/// gradient's rows x cols is checked against the bytes left before anything
/// is allocated, so a hostile or truncated payload returns kDataLoss.
Status DecodeEpochDone(const std::string& payload, uint64_t* run, int* rank,
                       EpochDoneReport* d);

/// True for coordinator→worker control messages — the frame types that
/// term-fencing guards. Peer data RPCs (fetch/push/sync) are run-gated by
/// the worker protocol, not term-gated.
bool IsCoordinatorCommand(MsgType type);

/// The fencing check a worker applies to a coordinator command: a frame
/// term below the highest term seen so far is rejected with a
/// NON-transient error (so a zombie coordinator's retry loop fails fast
/// instead of resending until its deadline); an equal or newer term is
/// adopted into `*known_term`.
Status CheckCoordinatorTerm(uint64_t frame_term, uint64_t* known_term);

/// What one distributed epoch returns to the engine layer.
struct ClusterEpochResult {
  double loss = 0.0;
  double train_accuracy = 0.0;
  double wall_seconds = 0.0;
  /// In-epoch recoveries performed during this epoch (step replays plus
  /// partition adoptions) and the wall-clock they cost, death to resume.
  int step_recoveries = 0;
  int adoptions = 0;
  double recovery_seconds = 0.0;
  /// Coordinator degrade events merged with every worker's epoch counters.
  fault::RecoveryCounters recovery;
};

/// The coordinator: owns the authoritative model + Adam state, the worker
/// processes, the checkpoint rotation, and the recovery ladder. One thread
/// makes every call on it (see "Coordinator loop" above).
class ClusterCoordinator {
 public:
  /// Validates the config, spawns the workers, waits for every kHello, and
  /// saves the epoch-0 checkpoint (the floor of the restore ladder).
  static Result<std::unique_ptr<ClusterCoordinator>> Start(ClusterConfig cfg);

  ~ClusterCoordinator();

  /// One distributed epoch with recovery. A worker death is first handled
  /// in-epoch (step replay or adoption per cfg.recover_mode); the
  /// abort/restore/rerun ladder remains the fallback, up to
  /// max_epoch_attempts.
  Result<ClusterEpochResult> RunEpoch();

  /// Distributed forward-only accuracy over a split.
  Result<double> Evaluate(SplitRole role);

  GnnModel* model() { return &model_; }
  Adam* adam() { return &adam_; }
  fault::DegradationPolicy* degradation() { return &degrade_; }
  int64_t epochs_completed() const { return epochs_completed_; }
  /// Workers respawned after a detected death (recovery evidence).
  int respawn_count() const { return respawns_; }
  /// In-epoch recoveries across the coordinator's lifetime: step replays,
  /// survivor adoptions, and the total wall-clock spent recovering.
  int step_recovery_count() const { return step_recoveries_; }
  int adoption_count() const { return adoptions_; }
  double recovery_seconds() const { return recovery_seconds_; }
  const ClusterConfig& config() const { return cfg_; }

  /// This incarnation's fencing term (journaled max + 1; 1 on a fresh run).
  uint64_t term() const { return term_; }
  /// Workers adopted alive from a previous incarnation at Start.
  int reattach_count() const { return reattaches_; }
  /// True when Start(resume) rebuilt cluster state from the journal (false
  /// on the checkpoint-fallback path after journal damage).
  bool resumed_from_journal() const { return resumed_from_journal_; }

  /// Test hook: simulate a coordinator crash — transport torn down, journal
  /// fd closed, worker processes and on-disk state left intact for a
  /// successor Start(resume=true). Only Shutdown() is valid afterwards (it
  /// becomes a no-op: the successor owns the workers and scratch dirs).
  void Crash();

  /// Clean shutdown: kShutdown to every worker, reap, close transport.
  /// Idempotent; also run by the destructor.
  void Shutdown();

 private:
  struct WorkerProc;
  struct RunState;
  struct Event;
  using DoneReport = EpochDoneReport;

  ClusterCoordinator() = default;

  /// Why a Pump returned.
  enum class Wake { kReady, kTimeout, kSigterm, kCrashed };

  Status SpawnWorker(int rank, bool first_spawn);
  /// Pumps until `rank`'s hello, then dials and watches it.
  Status WaitForHello(int rank, double deadline_s);
  /// A fresh process for `rank`: spawn, hello, dial, watch.
  Status Respawn(int rank);
  Status EnsureWorkersAlive();
  std::string BuildWeightsPayloadTail();
  /// Journals the active run's start, then sends it to every worker.
  /// `arg` is an eval's split, or an epoch's recover flag.
  Status BroadcastRun(uint32_t arg);
  /// The active run's kEpoch or kEval, with its run tail, to `rank`.
  Status SendRun(int rank, uint32_t arg, const std::string& tail);
  /// One-way kAbort of `run` to every live worker.
  void NotifyAbort(uint64_t run);
  /// Makes `run` the active run (`eval` or training), with no reports yet.
  void OpenRun(uint64_t run, bool eval);
  /// True once the active run has a pending death, every report, or a
  /// failure report.
  bool RunDecided() const;
  /// OK when every rank reported `run` done and OK.
  Status CheckReports(uint64_t run, const char* what);

  /// The coordinator's one wait. Applies every queued event in arrival
  /// order, then returns kCrashed once the crash drill fires, kSigterm on
  /// SIGTERM, kReady once `ready()` holds, or kTimeout once NowS passes
  /// `deadline`; otherwise sleeps until the next event or tick.
  Wake Pump(double deadline, const std::function<bool()>& ready);
  /// Applies one event to the coordinator's state, then acks its request.
  void Apply(Event& ev);
  /// The error a call returns when a Pump woke on the crash drill, or on
  /// SIGTERM (after shutting the cluster down).
  Status Stop(Wake w);

  /// In-epoch recovery rung 1: respawn the dead rank and replay it.
  Status RecoverRespawn(int rank);
  /// In-epoch recovery rung 2: a survivor adopts the dead partition.
  Status RecoverAdopt(int rank);
  /// Tells every alive worker (except `rank` itself) rank's new address.
  /// A failed call is only logged: its target may be dying, and its
  /// verified death reaches the run at the next pump.
  void BroadcastPeerUpdate(int rank, const std::string& addr);
  /// Watchdog action on a run timeout: SIGKILLs every worker that neither
  /// reported done nor died; returns " r1 r3"-style list for the error.
  std::string KillWedged();
  Status AbortAndRestore(uint64_t run, const std::string& why);
  /// Epoch-end checkpoint with retry; degrades (kCheckpointFallback) instead
  /// of failing the epoch when the save cannot be completed.
  void SaveCheckpointResilient(int64_t epoch);

  /// Transport threads: decode and validate a request, then enqueue it.
  void OnRequest(Transport::Request&& req);
  /// Transport threads: verify a reported death against the OS, fail the
  /// Calls to the rank, then enqueue it.
  void OnPeerDeath(int rank, const std::string& why);
  void Enqueue(Event ev);
  /// Everything queued so far, in arrival order.
  std::vector<Event> TakeEvents();

  /// Appends to the cluster journal (fsynced). A failed append degrades the
  /// coordinator to checkpoint-only recovery instead of failing the run.
  Status JournalAppend(JournalRecordType type, std::string payload);
  /// The kMember record of rank's current membership (addr + pid).
  std::string MemberRecord(int rank) const;
  /// Rewrites the journal to its minimal live prefix after an applied epoch.
  void JournalCompact();
  /// Resume-path membership: re-attach journaled survivors via kCoordUpdate,
  /// respawn verified-dead ranks, and mark ranks that must rejoin the
  /// resumed run.
  Status ReattachOrRespawn(const JournalState& js);

  ClusterConfig cfg_;
  GnnModel model_;
  Adam adam_{AdamOptions{}};
  fault::DegradationPolicy degrade_;
  bool owns_runtime_dir_ = false;

  std::unique_ptr<Transport> transport_;
  std::unique_ptr<CheckpointManager> ckpt_;

  std::vector<WorkerProc> workers_;
  std::unique_ptr<RunState> run_;
  uint64_t next_run_ = 1;
  int64_t epochs_completed_ = 0;
  int respawns_ = 0;
  int step_recoveries_ = 0;
  int adoptions_ = 0;
  double recovery_seconds_ = 0.0;
  bool shut_down_ = false;

  // Coordinator fault tolerance (journal + fencing + restart adoption).
  uint64_t term_ = 0;
  std::unique_ptr<ClusterJournal> journal_;
  bool journal_ok_ = true;
  bool crashed_ = false;
  bool resumed_from_journal_ = false;
  int reattaches_ = 0;
  /// In-flight run adopted from the journal; consumed by the first RunEpoch.
  uint64_t resume_run_ = 0;
  int64_t resume_epoch_ = -1;
  std::map<int, std::string> resume_reports_;  ///< rank → raw kEpochDone
  std::set<int> rejoin_ranks_;  ///< need replay into the resumed run

  /// Events from the transport threads, drained by Pump. `events_mu_` is
  /// the only lock the coordinator shares with them.
  std::mutex events_mu_;
  std::condition_variable events_cv_;
  std::vector<Event> events_;
};

/// Worker-role entry point. Call this FIRST in main() of any binary that
/// can host a cluster run (tests, benchmarks, examples): when
/// HONGTU_DIST_ROLE=worker it runs the worker loop and never returns
/// (exits the process); otherwise it returns immediately.
void MaybeRunClusterWorker();

}  // namespace net
}  // namespace hongtu
