/// \file rpc_comm.h
/// \brief The cluster worker's LayerComm: Algorithms 2 and 3 over the RPC
/// transport, plus the replay logs that make a dead worker's recovery
/// exactly-once.
///
/// A cluster worker is a HongTuEngine that hosts one device (its rank's
/// partition), and this class is its data movement:
///   - ForwardLoadSlot publishes batch j's transition rows (this rank's own
///     vertices, encoded at the wire width), then assembles the chunk's
///     neighbor rows: its own groups locally, each other owner's group with
///     one kFetchRows call.
///   - BackwardAccumulate sends each remote owner its group of neighbor
///     gradients (kGradPush), adds the groups this rank receives in
///     sender-rank order — CommExecutor's device order — and flushes
///     finished rows into the host gradient.
/// Every RPC names a step: the run's BeginLayer count so far (from 0) times
/// the batch count, plus the batch. All workers run the same layer
/// sequence, so a step names the same batch everywhere.
///
/// Replay contract: `fetch_log_` keeps each published step's serialized
/// response for every expected fetcher, so serving never reads the live
/// slots and a recovering peer re-fetches any step bit-identically. A fetch
/// that arrives before its step is published is parked and answered at
/// publish: no transport reader thread ever waits on a peer's progress (a
/// pipelined layer's load and store lanes share one connection per peer).
/// `push_out_log_` keeps every outbound push so a recovering destination
/// can re-pull it (`kFetchPush`), and the receiver's applied-step guard
/// drops the pushes a replaying sender repeats. Both logs keep the whole
/// run and reset at the next.

#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "hongtu/comm/dedup_plan.h"
#include "hongtu/comm/layer_comm.h"
#include "hongtu/common/fault.h"
#include "hongtu/kernels/backend.h"
#include "hongtu/net/transport.h"

namespace hongtu {
namespace net {

class RpcComm : public LayerComm {
 public:
  /// What the hosting worker process provides.
  struct Host {
    Transport* transport = nullptr;
    int rank = -1;  ///< the hosted device: this state's partition
    double rpc_deadline_s = 10.0;
    double peer_timeout_s = 2.0;
    /// Wall clock (MonotonicSeconds) until which waits may overstay their
    /// budget because a peer is being recovered.
    std::function<double()> grace_until;
    /// True while a dead coordinator's lease still allows a successor.
    std::function<bool()> in_coord_lease;
  };

  /// `plan` must outlive this object; retries are counted into `degrade`.
  RpcComm(Host host, const DedupPlan* plan, fault::DegradationPolicy* degrade);

  // ---- Run lifecycle (the worker's command thread) -------------------------
  /// Resets every per-run log, watermark and counter for `run`, and answers
  /// fetches parked for older runs. False when `run` was aborted before it
  /// started.
  bool StartRun(uint64_t run);
  /// Step recovery: asks every peer that pushes to this rank for its push
  /// watermark; steps at or below it are re-pulled from that peer's log.
  Status SyncRecoveryFloors();
  /// Aborts the current run if it is `run` or older, and every later use of
  /// runs up to `run`.
  void Abort(uint64_t run);
  /// The run currently executing (0 when idle).
  uint64_t current_run();

  /// Retries `fn` while its failure is transient: one RetryTransient burst
  /// per pass, then keeps going only while a recovery grace window or a
  /// coordinator lease is open. Fails fast once the run is aborted.
  Status RetryRpc(const char* site, const std::function<Status()>& fn);
  /// Per-attempt deadline of one RPC.
  double AttemptDeadlineS() const {
    return std::min(host_.rpc_deadline_s, std::max(host_.peer_timeout_s, 0.5));
  }

  // ---- LayerComm -----------------------------------------------------------
  Status BeginLayer(int dim, int num_slots, kernels::CommPrecision wire,
                    bool integrity) override;
  void EndLayer() override {}
  Status ForwardLoadSlot(int j, int slot, const Tensor& host) override;
  std::vector<Tensor>& slot_buffers(int slot) override {
    return slot_nbr_[static_cast<size_t>(slot)];
  }
  Status BackwardAccumulate(int j, const std::vector<Tensor>& nbr_grads,
                            Tensor* host_grad) override;

  // ---- Peer handlers (transport reader threads) ----------------------------
  void HandleFetch(Transport::Request& req, uint64_t run, int64_t step,
                   int requester);
  void HandlePush(Transport::Request& req, uint64_t run, int64_t step,
                  int sender, std::string body);
  void HandleSyncState(Transport::Request& req, uint64_t run, int asker);
  void HandleFetchPush(Transport::Request& req, uint64_t run, int64_t step,
                       int asker);

 private:
  /// A fetch that arrived before its step was published.
  struct ParkedFetch {
    uint64_t run;
    int64_t step;
    int requester;
    Transport::Request req;
  };

  int64_t Step(int j) const { return phase_ * plan_->num_chunks + j; }
  size_t RowBytes() const {
    return static_cast<size_t>(dim_) * static_cast<size_t>(elem_bytes_);
  }
  /// Encodes batch j's transition rows into trans_ and logs the response of
  /// every expected fetcher of step `s`; answers the fetches parked on it.
  Status Publish(int64_t s, int j, const Tensor& host);
  /// Assembles batch j's neighbor rows into `nb`.
  Status Fetch(int64_t s, int j, Tensor* nb);
  /// Sends batch j's remote gradient groups, logging each first.
  Status Push(int64_t s, int j, const Tensor& grads);
  /// The pushes other ranks make to this rank at step `s`, by sender.
  Result<std::map<int, std::string>> CollectPushes(int64_t s, int j);
  /// Internal once the current run is aborted (takes mu_).
  Status CheckNotAborted();
  /// One request to `peer` under RetryRpc; a response of other than
  /// `want_bytes` (unless kAnySize) is DataLoss, which retries.
  static constexpr size_t kAnySize = ~size_t{0};
  Result<std::string> CallPeer(const char* site, int peer, MsgType type,
                               const std::string& req, size_t want_bytes);
  /// Caller holds lk(mu_). Waits (up to the RPC deadline, stretched by a
  /// recovery grace window) for this rank to start `run`; true when it is
  /// the current, unaborted-at-start run.
  bool WaitForRun(std::unique_lock<std::mutex>& lk, uint64_t run);
  /// One row across the wire at the layer's precision.
  void EncodeRow(const float* src, void* dst) const;
  void DecodeRow(const void* src, float* dst) const;

  /// A reply to send once mu_ is released.
  struct Answer;
  /// Caller holds mu_. Decides a fetch: true with the response or the error
  /// in `*a`, false while its step is not yet published in this run.
  bool LookupFetch(uint64_t run, int64_t step, int requester, Answer* a);
  /// Caller holds mu_. Moves every parked fetch that can now be decided
  /// into `ready`.
  void ResolveParked(std::vector<Answer>* ready);

  const Host host_;
  const int rank_;
  const int W_;
  const DedupPlan* plan_;
  fault::DegradationPolicy* degrade_;
  const kernels::Backend kb_;
  /// Per batch j: peers that fetch from (and push gradients to) this rank.
  std::vector<std::vector<int>> fetchers_;

  // The current layer; written by BeginLayer before its lanes start.
  int dim_ = 0;
  kernels::CommPrecision wire_ = kernels::CommPrecision::kFp32;
  bool packed_ = false;
  int64_t elem_bytes_ = 4;
  int64_t phase_ = -1;  ///< BeginLayer calls this run, minus one
  Tensor trans_;  ///< transition buffer (wire-encoded payload); load lane
  Tensor tgrad_;  ///< transition gradients, fp32 accumulators; store lane
  std::vector<std::vector<Tensor>> slot_nbr_;  ///< [slot][device]

  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t cur_run_ = 0;
  uint64_t max_aborted_run_ = 0;
  bool abort_cur_ = false;
  int64_t applied_step_ = -1;
  std::map<std::pair<int64_t, int>, std::string> pushes_;  ///< (step, sender)
  /// (step, fetcher) -> the exact serialized fetch response, logged when the
  /// step is published. Serving reads only this, never the live slots.
  std::map<std::pair<int64_t, int>, std::string> fetch_log_;
  std::vector<ParkedFetch> parked_;
  /// (step, destination) -> raw outbound gradient rows, logged before send.
  std::map<std::pair<int64_t, int>, std::string> push_out_log_;
  /// Highest step successfully pushed to each destination this run.
  std::vector<int64_t> push_hi_;
  /// Recovery floors (replay only): highest step each peer had already
  /// pushed to this rank's dead incarnation — those will not arrive live
  /// and are re-pulled via kFetchPush instead.
  std::vector<int64_t> push_floor_;
};

}  // namespace net
}  // namespace hongtu
