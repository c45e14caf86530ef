#include "hongtu/net/rpc_comm.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <utility>

#include "hongtu/common/logging.h"
#include "hongtu/common/wire.h"

namespace hongtu {
namespace net {

namespace {

double NowS() { return MonotonicSeconds(); }

/// The request head every step RPC carries: {run, step, owner, requester}.
std::string StepRequest(uint64_t run, int64_t step, int owner, int asker) {
  WireWriter w;
  w.U64(run);
  w.U32(static_cast<uint32_t>(step));
  w.U32(static_cast<uint32_t>(owner));
  w.U32(static_cast<uint32_t>(asker));
  return w.Take();
}

}  // namespace

struct RpcComm::Answer {
  Transport::Request req;
  Status st;
  std::string payload;

  void Send() {
    if (st.ok()) {
      req.reply(MsgType::kAck, std::move(payload));
    } else {
      req.reply_error(st);
    }
  }
};

RpcComm::RpcComm(Host host, const DedupPlan* plan,
                 fault::DegradationPolicy* degrade)
    : host_(std::move(host)),
      rank_(host_.rank),
      W_(plan->num_partitions),
      plan_(plan),
      degrade_(degrade),
      kb_(kernels::ActiveBackend()) {
  // Expected fetchers (== gradient pushers) per batch: peers whose fetch
  // plan has a nonempty group for this rank as owner.
  fetchers_.assign(static_cast<size_t>(plan_->num_chunks), {});
  for (int j = 0; j < plan_->num_chunks; ++j) {
    for (int w = 0; w < W_; ++w) {
      const FetchPlan& fp = plan_->fetch[w][j];
      if (w != rank_ && fp.group_off[rank_ + 1] > fp.group_off[rank_]) {
        fetchers_[static_cast<size_t>(j)].push_back(w);
      }
    }
  }
  push_hi_.assign(static_cast<size_t>(W_), -1);
  push_floor_.assign(static_cast<size_t>(W_), -1);
}

// ---- Run lifecycle ----------------------------------------------------------

bool RpcComm::StartRun(uint64_t run) {
  std::vector<Answer> ready;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (run <= max_aborted_run_) return false;  // aborted while queued
    // cur_run_ first: a peer recovering at the same time may already be
    // asking this rank for its watermarks.
    cur_run_ = run;
    abort_cur_ = false;
    phase_ = -1;
    applied_step_ = -1;
    pushes_.clear();
    fetch_log_.clear();
    push_out_log_.clear();
    push_hi_.assign(static_cast<size_t>(W_), -1);
    push_floor_.assign(static_cast<size_t>(W_), -1);
    ResolveParked(&ready);
  }
  cv_.notify_all();
  for (Answer& a : ready) a.Send();
  return true;
}

void RpcComm::Abort(uint64_t run) {
  std::vector<Answer> ready;
  {
    std::lock_guard<std::mutex> lk(mu_);
    max_aborted_run_ = std::max(max_aborted_run_, run);
    if (cur_run_ != 0 && cur_run_ <= run) abort_cur_ = true;
    ResolveParked(&ready);
  }
  cv_.notify_all();
  for (Answer& a : ready) a.Send();
}

uint64_t RpcComm::current_run() {
  std::lock_guard<std::mutex> lk(mu_);
  return cur_run_;
}

Status RpcComm::CheckNotAborted() {
  std::lock_guard<std::mutex> lk(mu_);
  return abort_cur_ ? Status::Internal("run aborted") : Status::OK();
}

Status RpcComm::RetryRpc(const char* site, const std::function<Status()>& fn) {
  // Short per-attempt deadline (the peer timeout), bounded total budget per
  // burst; the outer loop keeps retrying past the budget only while a
  // recovery grace window is open (a peer is being respawned or adopted).
  fault::RetryPolicy pol = fault::DefaultRetryPolicy();
  pol.max_attempts = std::max(pol.max_attempts, 16);
  pol.total_deadline_s = host_.rpc_deadline_s * 2.0;
  for (;;) {
    const Status st = fault::RetryTransient(pol, degrade_, site, fn);
    if (st.ok() || !st.IsTransient()) return st;
    HT_RETURN_IF_ERROR(CheckNotAborted());
    // Keep retrying while a peer recovery grace window is open, or while a
    // dead coordinator's lease still allows a successor to appear (so a
    // finished epoch's report survives a coordinator restart).
    if (NowS() >= host_.grace_until() && !host_.in_coord_lease()) return st;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

Result<std::string> RpcComm::CallPeer(const char* site, int peer, MsgType type,
                                      const std::string& req,
                                      size_t want_bytes) {
  std::string resp;
  HT_RETURN_IF_ERROR(RetryRpc(site, [&]() -> Status {
    HT_RETURN_IF_ERROR(CheckNotAborted());
    auto r = host_.transport->Call(peer, type, req, AttemptDeadlineS());
    if (!r.ok()) return r.status();
    resp = r.MoveValueUnsafe();
    if (want_bytes != kAnySize && resp.size() != want_bytes) {
      return Status::DataLoss(std::string(MsgTypeName(type)) +
                              " response size mismatch from rank " +
                              std::to_string(peer));
    }
    return Status::OK();
  }));
  return resp;
}

Status RpcComm::SyncRecoveryFloors() {
  const uint64_t run = current_run();
  std::set<int> senders;
  for (const std::vector<int>& f : fetchers_) senders.insert(f.begin(), f.end());
  for (int w : senders) {
    WireWriter q;
    q.U64(run);
    q.U32(static_cast<uint32_t>(w));      // owner: whose watermark
    q.U32(static_cast<uint32_t>(rank_));  // asker: the recovering rank
    HT_ASSIGN_OR_RETURN(const std::string resp,
                        CallPeer("net.sync_state", w, MsgType::kSyncState,
                                 q.Take(), kAnySize));
    WireReader rr(resp);
    HT_ASSIGN_OR_RETURN(const int64_t hi, rr.I64());
    std::lock_guard<std::mutex> lk(mu_);
    push_floor_[static_cast<size_t>(w)] = hi;
  }
  HT_LOG(INFO) << "worker replay r" << rank_ << ": recovery floors synced ("
               << senders.size() << " peers)";
  return Status::OK();
}

// ---- Row codec --------------------------------------------------------------

void RpcComm::EncodeRow(const float* src, void* dst) const {
  if (packed_) {
    kernels::EncodeRows(kb_, wire_, src, dim_, static_cast<uint16_t*>(dst));
  } else {
    std::memcpy(dst, src, RowBytes());
  }
}

void RpcComm::DecodeRow(const void* src, float* dst) const {
  if (packed_) {
    kernels::DecodeRows(kb_, wire_, static_cast<const uint16_t*>(src), dim_,
                        dst);
  } else {
    std::memcpy(dst, src, RowBytes());
  }
}

// ---- LayerComm --------------------------------------------------------------

Status RpcComm::BeginLayer(int dim, int num_slots, kernels::CommPrecision wire,
                           bool /*integrity: frames carry their own CRC32C*/) {
  dim_ = dim;
  wire_ = wire;
  packed_ = wire != kernels::CommPrecision::kFp32;
  elem_bytes_ = kernels::CommElemBytes(wire);
  ++phase_;
  const int64_t slots = plan_->buffer_slots[static_cast<size_t>(rank_)];
  trans_.EnsureShape(slots, packed_ ? (static_cast<int64_t>(dim) + 1) / 2 : dim);
  tgrad_.EnsureShapeZeroed(slots, dim);
  slot_nbr_.resize(static_cast<size_t>(std::max(1, num_slots)));
  for (std::vector<Tensor>& slot : slot_nbr_) {
    slot.resize(static_cast<size_t>(W_));
  }
  return Status::OK();
}

Status RpcComm::ForwardLoadSlot(int j, int slot, const Tensor& host) {
  if (slot < 0 || static_cast<size_t>(slot) >= slot_nbr_.size() ||
      dim_ == 0 || host.cols() != dim_) {
    return Status::Invalid("RpcComm::ForwardLoadSlot: BeginLayer(dim, "
                           "num_slots) mismatch");
  }
  const int64_t s = Step(j);
  HT_RETURN_IF_ERROR(Publish(s, j, host));
  return Fetch(s, j, &slot_nbr_[static_cast<size_t>(slot)][rank_]);
}

Status RpcComm::Publish(int64_t s, int j, const Tensor& host) {
  const TransitionStep& ts = plan_->transition[rank_][j];
  for (size_t p = 0; p < ts.vertices.size(); ++p) {
    if (ts.reused[p]) continue;  // N^gpu: the slot already holds this vertex
    EncodeRow(host.row(ts.vertices[p]), trans_.row(ts.slots[p]));
  }
  // Serialize every expected fetcher's response now: serving reads the log,
  // never the live slots, so slot reuse needs no gate and a replaying peer
  // is served bit-identical bytes for any step of the run.
  const size_t row_b = RowBytes();
  std::vector<Answer> ready;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (abort_cur_) return Status::Internal("run aborted");
    for (int w : fetchers_[static_cast<size_t>(j)]) {
      const FetchPlan& fp = plan_->fetch[w][j];
      const int64_t b = fp.group_off[rank_];
      std::string& out = fetch_log_[{s, w}];
      out.resize(static_cast<size_t>(fp.group_off[rank_ + 1] - b) * row_b);
      for (int64_t k = b; k < fp.group_off[rank_ + 1]; ++k) {
        std::memcpy(&out[static_cast<size_t>(k - b) * row_b],
                    trans_.row(fp.group_slot[k]), row_b);
      }
    }
    ResolveParked(&ready);
  }
  cv_.notify_all();
  for (Answer& a : ready) a.Send();
  return Status::OK();
}

Status RpcComm::Fetch(int64_t s, int j, Tensor* nb) {
  const FetchPlan& fp = plan_->fetch[rank_][j];
  const size_t row_b = RowBytes();
  const uint64_t run = current_run();
  nb->EnsureShape(static_cast<int64_t>(fp.owner.size()), dim_);
  for (int o = 0; o < W_; ++o) {
    const int64_t b = fp.group_off[o];
    const int64_t e = fp.group_off[o + 1];
    if (b == e) continue;
    if (o == rank_) {
      for (int64_t k = b; k < e; ++k) {
        DecodeRow(trans_.row(fp.group_slot[k]), nb->row(fp.group_pos[k]));
      }
      continue;
    }
    HT_ASSIGN_OR_RETURN(
        const std::string resp,
        CallPeer("net.fetch_rows", o, MsgType::kFetchRows,
                 StepRequest(run, s, o, rank_),
                 static_cast<size_t>(e - b) * row_b));
    for (int64_t k = b; k < e; ++k) {
      DecodeRow(resp.data() + static_cast<size_t>(k - b) * row_b,
                nb->row(fp.group_pos[k]));
    }
  }
  return Status::OK();
}

Status RpcComm::BackwardAccumulate(int j, const std::vector<Tensor>& nbr_grads,
                                   Tensor* host_grad) {
  if (dim_ == 0 || host_grad->cols() != dim_) {
    return Status::Invalid("RpcComm::BackwardAccumulate: BeginLayer(dim) "
                           "mismatch with host gradient buffer");
  }
  const int64_t s = Step(j);
  const Tensor& grads = nbr_grads[static_cast<size_t>(rank_)];
  const FetchPlan& fp = plan_->fetch[rank_][j];
  const size_t row_b = RowBytes();
  // 1. Send this chunk's gradient groups to every remote owner before
  //    waiting for inbound pushes (deadlock freedom: everyone sends first,
  //    then waits).
  HT_RETURN_IF_ERROR(Push(s, j, grads));
  // 2. Collect the pushes other ranks make to this rank at step s.
  std::map<int, std::string> inbound;
  HT_ASSIGN_OR_RETURN(inbound, CollectPushes(s, j));

  // 3. Apply contributions in sender-rank order — CommExecutor's device
  //    order, so each transition row sums the same values in the same order
  //    as the in-process engine's.
  for (int w = 0; w < W_; ++w) {
    if (w == rank_) {
      for (int64_t k = fp.group_off[rank_]; k < fp.group_off[rank_ + 1]; ++k) {
        kernels::QuantizeAccumRows(kb_, wire_, grads.row(fp.group_pos[k]), dim_,
                                   tgrad_.row(fp.group_slot[k]));
      }
      continue;
    }
    auto it = inbound.find(w);
    if (it == inbound.end()) continue;  // no group for us in batch j
    const std::string& rows = it->second;
    const FetchPlan& fpw = plan_->fetch[w][j];
    const int64_t b = fpw.group_off[rank_];
    const int64_t e = fpw.group_off[rank_ + 1];
    if (rows.size() != static_cast<size_t>(e - b) * row_b) {
      return Status::Internal("gradient push size mismatch from rank " +
                              std::to_string(w));
    }
    for (int64_t k = b; k < e; ++k) {
      const char* src = rows.data() + static_cast<size_t>(k - b) * row_b;
      float* acc = tgrad_.row(fpw.group_slot[k]);
      if (packed_) {
        kernels::DecodeAccumRows(kb_, wire_,
                                 reinterpret_cast<const uint16_t*>(src), dim_,
                                 acc);
      } else {
        kernels::QuantizeAccumRows(
            kb_, wire_, reinterpret_cast<const float*>(src), dim_, acc);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    applied_step_ = s;
  }
  cv_.notify_all();

  // 4. Flush slots whose vertex does not recur in batch j+1 into the host
  //    gradient (one more wire crossing, as CommExecutor's flush); retained
  //    slots keep accumulating.
  const TransitionStep& ts = plan_->transition[rank_][j];
  for (size_t p = 0; p < ts.vertices.size(); ++p) {
    if (!ts.flush[p]) continue;
    float* tg = tgrad_.row(ts.slots[p]);
    kernels::QuantizeAccumRows(kb_, wire_, tg, dim_,
                               host_grad->row(ts.vertices[p]));
    std::memset(tg, 0, static_cast<size_t>(dim_) * sizeof(float));
  }
  return Status::OK();
}

Status RpcComm::Push(int64_t s, int j, const Tensor& grads) {
  const FetchPlan& fp = plan_->fetch[rank_][j];
  const size_t row_b = RowBytes();
  const uint64_t run = current_run();
  for (int o = 0; o < W_; ++o) {
    const int64_t b = fp.group_off[o];
    const int64_t e = fp.group_off[o + 1];
    if (o == rank_ || b == e) continue;
    std::string rows(static_cast<size_t>(e - b) * row_b, '\0');
    for (int64_t k = b; k < e; ++k) {
      EncodeRow(grads.row(fp.group_pos[k]),
                &rows[static_cast<size_t>(k - b) * row_b]);
    }
    // Logged before the send, so a recovering destination can re-pull it
    // (kFetchPush) after this rank has moved on.
    {
      std::lock_guard<std::mutex> lk(mu_);
      push_out_log_[{s, o}] = rows;
    }
    HT_RETURN_IF_ERROR(CallPeer("net.grad_push", o, MsgType::kGradPush,
                                StepRequest(run, s, o, rank_) + rows,
                                /*want_bytes: an empty ack=*/0)
                           .status());
    std::lock_guard<std::mutex> lk(mu_);
    push_hi_[static_cast<size_t>(o)] =
        std::max(push_hi_[static_cast<size_t>(o)], s);
  }
  return Status::OK();
}

Result<std::map<int, std::string>> RpcComm::CollectPushes(int64_t s, int j) {
  // A peer that had already delivered step s to this rank's dead incarnation
  // (s <= push_floor_) will not resend: re-pull those from its outbound log.
  // The rest arrive live.
  const uint64_t run = current_run();
  std::map<int, std::string> inbound;
  std::vector<int> live;
  for (int w : fetchers_[static_cast<size_t>(j)]) {
    bool pull;
    {
      std::lock_guard<std::mutex> lk(mu_);
      pull = s <= push_floor_[static_cast<size_t>(w)];
    }
    if (!pull) {
      live.push_back(w);
      continue;
    }
    // owner: whose outbound log; asker: its original destination.
    HT_ASSIGN_OR_RETURN(inbound[w],
                        CallPeer("net.fetch_push", w, MsgType::kFetchPush,
                                 StepRequest(run, s, w, rank_), kAnySize));
  }
  // Wait for the live ones, past the RPC deadline only while a recovery
  // grace window is open.
  std::unique_lock<std::mutex> lk(mu_);
  const double start = NowS();
  for (int w : live) {
    while (pushes_.count({s, w}) == 0) {
      if (abort_cur_) return Status::Internal("run aborted");
      const double now = NowS();
      if (now >= start + host_.rpc_deadline_s && now >= host_.grace_until()) {
        return Status::Unavailable("timed out waiting for gradient pushes "
                                   "for step " + std::to_string(s));
      }
      cv_.wait_for(lk, std::chrono::milliseconds(50));
    }
  }
  for (int w : live) {
    auto it = pushes_.find({s, w});
    inbound[w] = std::move(it->second);
    pushes_.erase(it);
  }
  return inbound;
}

// ---- Peer handlers ----------------------------------------------------------

bool RpcComm::LookupFetch(uint64_t run, int64_t step, int requester,
                          Answer* a) {
  if (cur_run_ > run || run <= max_aborted_run_) {
    a->st = Status::Unavailable("fetch for stale run");
    return true;
  }
  if (cur_run_ != run) return false;  // this rank has not started `run` yet
  if (abort_cur_) {
    a->st = Status::Unavailable("run aborted");
    return true;
  }
  auto it = fetch_log_.find({step, requester});
  if (it == fetch_log_.end()) return false;
  a->payload = it->second;
  return true;
}

void RpcComm::ResolveParked(std::vector<Answer>* ready) {
  for (auto it = parked_.begin(); it != parked_.end();) {
    Answer a;
    if (LookupFetch(it->run, it->step, it->requester, &a)) {
      a.req = std::move(it->req);
      ready->push_back(std::move(a));
      it = parked_.erase(it);
    } else {
      ++it;
    }
  }
}

void RpcComm::HandleFetch(Transport::Request& req, uint64_t run, int64_t step,
                          int requester) {
  Answer a;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!LookupFetch(run, step, requester, &a)) {
      // Not published yet: park it. Publish (or the next run reset or
      // abort) answers it; the requester's own deadline bounds the wait.
      parked_.push_back({run, step, requester, std::move(req)});
      return;
    }
  }
  a.req = std::move(req);
  a.Send();
}

bool RpcComm::WaitForRun(std::unique_lock<std::mutex>& lk, uint64_t run) {
  // A peer may reach `run` before this rank's own command thread does.
  const double start = NowS();
  while (cur_run_ < run && run > max_aborted_run_) {
    const double now = NowS();
    if (now >= start + host_.rpc_deadline_s && now >= host_.grace_until()) {
      break;
    }
    cv_.wait_for(lk, std::chrono::milliseconds(50));
  }
  return cur_run_ == run && run > max_aborted_run_;
}

void RpcComm::HandlePush(Transport::Request& req, uint64_t run, int64_t step,
                         int sender, std::string body) {
  Answer a;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (!WaitForRun(lk, run)) {
      a.st = Status::Unavailable("push for stale run");
    } else if (abort_cur_) {
      a.st = Status::Unavailable("run aborted");
    } else if (applied_step_ < step) {
      // Duplicates (a replaying sender re-pushing an applied step, or a
      // resend after a lost ack) either overwrite with identical bytes or
      // are dropped by the applied_step_ guard — idempotent both ways.
      pushes_[{step, sender}] = std::move(body);
    }
  }
  cv_.notify_all();
  a.req = std::move(req);
  a.Send();
}

void RpcComm::HandleSyncState(Transport::Request& req, uint64_t run,
                              int asker) {
  Answer a;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (WaitForRun(lk, run)) {
      WireWriter w;
      w.I64(push_hi_[static_cast<size_t>(asker)]);
      a.payload = w.Take();
    } else {
      a.st = Status::Unavailable("sync_state for stale run");
    }
  }
  a.req = std::move(req);
  a.Send();
}

void RpcComm::HandleFetchPush(Transport::Request& req, uint64_t run,
                              int64_t step, int asker) {
  Answer a;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = push_out_log_.find({step, asker});
    if (cur_run_ != run || run <= max_aborted_run_) {
      a.st = Status::Unavailable("fetch_push for stale run");
    } else if (it == push_out_log_.end()) {
      // Not logged yet — this rank may itself be replaying toward the step.
      // Transient: the asker retries under the grace window.
      a.st = Status::Unavailable("push (step " + std::to_string(step) +
                                 " -> r" + std::to_string(asker) +
                                 ") not logged yet");
    } else {
      a.payload = it->second;
    }
  }
  a.req = std::move(req);
  a.Send();
}

}  // namespace net
}  // namespace hongtu
