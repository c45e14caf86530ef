/// \file fault.h
/// \brief Deterministic fault injection, transient-failure retry, and the
/// unified degradation policy.
///
/// An out-of-core epoch is a long loop of host<->device row transfers,
/// recomputation batches and gradient flushes — exactly the workload shape
/// where a production system must survive transient transfer failures,
/// corrupted payloads and allocation pressure rather than abort a
/// multi-hour full-batch run. This header defines the three pieces every
/// subsystem shares:
///
///  1. **Fault injection registry.** Named sites (`comm.fetch`,
///     `device.h2d`, ...) are sprinkled through the hot paths as
///     `fault::Poke(Site)` calls. Disarmed (the default) a poke is a single
///     relaxed atomic load — zero overhead. Armed, a site fires
///     deterministically: the decision for the k-th check is a pure
///     function of (seed, k), so a run with a given spec always fails at
///     the same points, making recovery paths unit-testable bit-for-bit.
///     Configure via the programmatic API or the environment:
///
///         HONGTU_FAULT_SPEC=site:kind:prob:seed[:max_count[:skip]][;...]
///
///     e.g. `comm.fetch:transient:1:42:1` = the first comm fetch fails once
///     with a retryable error; `ckpt.write:kill:1:0:1:12` = the 13th
///     checkpoint-write poke SIGKILLs the process (the kill-and-resume CI
///     smoke). Kinds: `transient` (retryable Unavailable), `permanent`
///     (non-retryable Internal), `corrupt` (payload bit-flip where the site
///     has a payload, otherwise DataLoss), `kill` (raise SIGKILL).
///
///  2. **Retry layer.** `RetryTransient` re-attempts an idempotent
///     operation while it fails with a *transient* Status (kUnavailable /
///     kDataLoss), with capped exponential backoff and deterministic
///     jitter. Permanent errors propagate immediately.
///
///  3. **DegradationPolicy.** The single, counted record of every graceful
///     degradation: retries, integrity refetches, pipeline->serial
///     replays, OOM fallbacks, checkpoint fallbacks. Engines snapshot it
///     into EpochStats so a "recovered" epoch is visibly different from a
///     clean one (and tests can prove a recovery path actually fired).

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "hongtu/common/status.h"

namespace hongtu {
namespace fault {

/// Registered injection sites. Keep SiteName() in sync.
enum class Site : int {
  kPoolAlloc = 0,   ///< device buffer-pool allocations (SimDevice::Allocate)
  kCommFetch,       ///< CommExecutor::ForwardLoad (Alg. 2 fetch path)
  kCommFlush,       ///< CommExecutor::BackwardAccumulate (Alg. 3 flush path)
  kDeviceH2D,       ///< engine host<->device row streams (gather/scatter)
  kPipelineStage,   ///< each stage item of the pipeline executor
  kCkptWrite,       ///< checkpoint section writes
  kGraphIo,         ///< graph/dataset file loaders
  kNetSend,         ///< net/frame.h WriteFrame (cluster RPC egress)
  kNetRecv,         ///< net/frame.h ReadFrame (cluster RPC ingress)
  kNetAccept,       ///< net/transport.h accept loop (new peer connections)
  kCkptRead,        ///< checkpoint restore-time reads (snapshot parsing)
  kJournalWrite,    ///< cluster write-ahead journal record appends
};
constexpr int kNumSites = 12;

/// "pool.alloc", "comm.fetch", ... (stable; the spec grammar uses these).
const char* SiteName(Site s);

/// What an armed site injects when it fires. The wire-shaped kinds (drop,
/// delay, disconnect) model the failure modes only a real network has; at
/// the net.* sites the transport implements their exact semantics (a
/// dropped frame simply never arrives, a disconnect severs the socket), and
/// at every other site they degrade to a retryable Unavailable (drop /
/// disconnect) or a short stall (delay).
enum class Kind : int {
  kNone = 0,
  kTransient,   ///< Status::Unavailable — the retry layer recovers
  kPermanent,   ///< Status::Internal — must propagate as a clean error
  kCorrupt,     ///< flip payload bits where the site has one, else DataLoss
  kKill,        ///< raise(SIGKILL) — crash/resume testing
  kDrop,        ///< silently discard the frame (deadline-expiry testing)
  kDelay,       ///< stall the operation a few milliseconds (straggler model)
  kDisconnect,  ///< sever the connection (reconnect-path testing)
};
const char* KindName(Kind k);

/// Stall injected by Kind::kDelay at every site: Poke(), comm.fetch and the
/// net.send/net.recv/net.accept checks. Long enough to trip tight RPC
/// deadlines in tests, short enough that a low-probability delay spec does
/// not dominate a run.
constexpr double kDelayStallSeconds = 2e-3;

/// One armed site's configuration.
struct SiteSpec {
  Kind kind = Kind::kNone;
  double prob = 0.0;       ///< per-check fire probability in [0, 1]
  uint64_t seed = 0;       ///< decision stream seed (determinism)
  int64_t max_count = -1;  ///< stop firing after this many fires (<0 = inf)
  int64_t skip = 0;        ///< never fire on the first `skip` checks
};

/// True when any site is armed. A single relaxed atomic load; every
/// injection site guards its (locked) bookkeeping behind this, so the
/// disarmed hot path costs nothing measurable.
bool Armed();

/// The k-th check of an armed site: returns the kind fired, or kNone.
/// Deterministic: whether check k fires depends only on (spec.seed, k).
/// kKill raises SIGKILL and does not return.
Kind Check(Site s);

/// Check + materialize the injected Status: kTransient -> Unavailable,
/// kPermanent -> Internal, kCorrupt (at payload-less sites) -> DataLoss.
/// Returns OK when the site does not fire. Call this at sites that fail by
/// returning a Status; use Check() directly at sites that corrupt payloads.
Status Poke(Site s);
/// What Poke returns (and does: kDelay stalls) once site `s` drew `k`.
Status Injected(Site s, Kind k);

/// Arms `site` with `spec` (replacing any previous arming of that site).
Status Arm(Site site, const SiteSpec& spec);

/// Parses and arms a full HONGTU_FAULT_SPEC string (';'-separated clauses
/// of `site:kind:prob:seed[:max_count[:skip]]`). seed, max_count and skip
/// are whole unsigned integers: an empty field, a sign or trailing garbage
/// is Invalid.
Status ArmSpecString(const std::string& spec);

/// Disarms every site and clears per-site statistics.
void DisarmAll();

/// Per-site counters (since arming / the last DisarmAll).
struct SiteStats {
  int64_t checks = 0;  ///< pokes that consulted the decision stream
  int64_t fired = 0;   ///< pokes that injected a fault
};
SiteStats StatsFor(Site s);

// ---- Retry layer. ----------------------------------------------------------

/// Capped-exponential-backoff policy for transient failures. The backoff
/// seconds are real sleeps (small: recovery paths must not dominate test
/// time) with deterministic jitter drawn from (jitter_seed, attempt).
struct RetryPolicy {
  int max_attempts = 4;         ///< total tries (1 initial + 3 retries)
  double base_backoff_s = 5e-5;
  double max_backoff_s = 5e-3;
  uint64_t jitter_seed = 0x9e3779b97f4a7c15ULL;
  /// Total wall-clock budget across all attempts, in seconds; <= 0 means
  /// unbounded (attempt count is the only cap — the pre-PR-8 behavior).
  /// RPC paths set this so a dead peer fails over into the recovery ladder
  /// (abort -> checkpoint restore -> respawn) instead of retrying into a
  /// black hole: once the budget is spent no further attempt starts and
  /// the last transient status propagates as kRetryExhausted.
  double total_deadline_s = 0.0;
};

/// Parses a `HONGTU_RETRY_SPEC` string into a policy. Grammar (every field
/// optional from the right, ':'-separated):
///
///     attempts:base_backoff_s:max_backoff_s:total_deadline_s:jitter_seed
///
/// e.g. `6:1e-4:1e-2` = 6 attempts, 100us base backoff, 10ms cap. Fields
/// left empty (`::5e-3`) keep their defaults; a non-empty field must parse
/// whole (jitter_seed as an unsigned integer), else the spec is Invalid.
Result<RetryPolicy> ParseRetrySpec(const std::string& spec);

/// The process-wide retry policy: `HONGTU_RETRY_SPEC` parsed once on first
/// use (aborts loudly on a malformed spec, like HONGTU_FAULT_SPEC), the
/// struct defaults otherwise. Call sites that need different caps (e.g. the
/// cluster RPC paths, which override max_attempts and total_deadline_s to
/// track their own peer/abort deadlines) copy this and adjust fields.
const RetryPolicy& DefaultRetryPolicy();

namespace internal {
/// Sleeps the backoff for retry number `attempt` (1-based) under `p`,
/// returning the slept seconds: min(max, base * 2^(attempt-1)) scaled by a
/// deterministic jitter factor in [0.5, 1.0).
double BackoffSleep(const RetryPolicy& p, int attempt);
}  // namespace internal

// ---- Degradation policy. ---------------------------------------------------

/// Every structured degradation event the system can survive. Keep
/// DegradeEventName() in sync.
enum class DegradeEvent : int {
  kTransientRetry = 0,    ///< a transient failure recovered by retrying
  kRetryExhausted,        ///< retries ran out; the error propagated
  kIntegrityRefetch,      ///< a CRC32C mismatch repaired by refetching
  kPipelineReplay,        ///< poisoned pipelined layer replayed at depth 1
  kPipelineOomFallback,   ///< pipelined working set OOM -> depth-1 layer
  kScheduleFallback,      ///< edge schedules did not fit -> single-pass
  kCheckpointFallback,    ///< corrupt snapshot skipped for the previous one
  kPeerDeath,             ///< a cluster worker died (EOF / heartbeat timeout)
  kEpochRestart,          ///< epoch aborted, state restored from checkpoint
  kStepRecovery,          ///< dead rank replayed in-epoch (no epoch restart)
  kPartitionAdopted,      ///< dead rank's partition taken over by a survivor
  kCoordJournalReplay,    ///< restarted coordinator rebuilt state from the WAL
  kWorkerReattach,        ///< worker re-registered with a restarted coordinator
};
constexpr int kNumDegradeEvents = 13;

const char* DegradeEventName(DegradeEvent e);

/// Value snapshot of the policy's counters; embedded in EpochStats.
struct RecoveryCounters {
  int64_t counts[kNumDegradeEvents] = {0};

  int64_t operator[](DegradeEvent e) const {
    return counts[static_cast<int>(e)];
  }
  int64_t total() const {
    int64_t t = 0;
    for (int64_t c : counts) t += c;
    return t;
  }
  /// "retry=2 integrity_refetch=1" — only nonzero events; "" when clean.
  std::string ToString() const;
};

/// Thread-safe counted record of degradation events. One per engine;
/// threaded into the comm executor and the epoch loops. `Record` is cheap
/// (events are rare by construction); `SnapshotEpoch` returns the counts
/// since the last `ResetEpoch`, merged with the setup-time events (schedule
/// fallbacks happen once at engine creation but stay visible every epoch).
class DegradationPolicy {
 public:
  /// Counts (and logs at WARNING) one recoverable event.
  void Record(DegradeEvent e, const std::string& detail);
  /// Counts a setup-time event that outlives epochs (never reset).
  void RecordSetup(DegradeEvent e, const std::string& detail);

  void ResetEpoch();
  RecoveryCounters SnapshotEpoch() const;

 private:
  std::atomic<int64_t> epoch_[kNumDegradeEvents] = {};
  std::atomic<int64_t> setup_[kNumDegradeEvents] = {};
};

/// Runs `fn` (returning Status), retrying while the result is transient.
/// `fn` must be idempotent. Successful recovery records kTransientRetry on
/// `policy` (may be null); exhausting max_attempts — or the policy's
/// total_deadline_s wall-clock budget, when set — records kRetryExhausted
/// and returns the last transient status. Non-transient results return
/// immediately.
template <typename Fn>
Status RetryTransient(const RetryPolicy& p, DegradationPolicy* policy,
                      const char* what, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline_spent = [&] {
    if (p.total_deadline_s <= 0.0) return false;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
               .count() >= p.total_deadline_s;
  };
  Status st = fn();
  if (st.ok() || !st.IsTransient()) return st;
  bool out_of_time = false;
  for (int attempt = 1; attempt < p.max_attempts; ++attempt) {
    if (deadline_spent()) {
      out_of_time = true;
      break;
    }
    internal::BackoffSleep(p, attempt);
    st = fn();
    if (!st.IsTransient()) {
      if (st.ok() && policy != nullptr) {
        policy->Record(DegradeEvent::kTransientRetry,
                       std::string(what) + ": recovered after " +
                           std::to_string(attempt) + " retr" +
                           (attempt == 1 ? "y" : "ies"));
      }
      return st;
    }
  }
  if (policy != nullptr) {
    policy->Record(DegradeEvent::kRetryExhausted,
                   std::string(what) +
                       (out_of_time ? " (total deadline spent): " : ": ") +
                       st.ToString());
  }
  return st;
}

}  // namespace fault
}  // namespace hongtu
