/// \file executor.h
/// \brief Runtime data movement of the deduplicated communication framework
/// (Algorithms 2 and 3, plus the in-place buffer management of §6).
///
/// The executor owns, per simulated device, a transition data buffer (stable
/// slots, updated in place across batches) and mirrors all host<->device,
/// device<->device and in-place-reuse traffic into the SimPlatform's meters.
/// Data really moves: host rows are float32 rows of the CPU-resident layer
/// buffer h^l, and assembled neighbor buffers feed the real GNN kernels.
///
/// Mixed-precision mode (kernels/codec.h): when BeginLayer selects a 16-bit
/// wire precision, transition payloads are *stored compressed* — the load
/// step encodes host rows into 2-byte elements, the fetch step decodes them
/// into the fp32 neighbor buffers the kernels consume (convert-on-copy over
/// the plan's owner-grouped index arrays), and the backward push/flush paths
/// quantize each gradient row once on its wire crossing while every
/// accumulator (transition gradients, the host gradient buffer) stays fp32.
/// All byte meters and the device-capacity charge use the compressed width.
///
/// One layer is in flight at a time: the 3-lane stage pipeline runs layers
/// strictly in order, so the executor owns a single set of transition
/// buffers, slot buffers and integrity sidecars.
/// Within the layer, `num_slots` in BeginLayer is the pipeline's window:
/// batch j loads into slot j mod num_slots (ForwardLoadSlot) and its
/// compute stage reads slot_buffers(j mod num_slots).

#pragma once

#include <cstdint>
#include <vector>

#include "hongtu/comm/dedup_plan.h"
#include "hongtu/comm/layer_comm.h"
#include "hongtu/common/fault.h"
#include "hongtu/kernels/codec.h"
#include "hongtu/sim/interconnect.h"
#include "hongtu/tensor/tensor.h"

namespace hongtu {

/// Fault tolerance (common/fault.h): both data-movement entry points retry
/// transient failures (injected or real) with capped exponential backoff —
/// ForwardLoad is idempotent and retries wholesale; BackwardAccumulate's
/// fault site fires before any accumulator is touched, so its retry is
/// equally safe. When integrity checking is on (BeginLayer), every
/// transition payload row carries a CRC32C word computed at encode time and
/// verified on every fetch; a corrupted row is repaired by re-fetching it
/// from the host source of truth (metered as extra H2D traffic and counted
/// as a DegradeEvent::kIntegrityRefetch) instead of silently feeding bad
/// bits to the kernels.
///
/// This is the in-process LayerComm (comm/layer_comm.h): it hosts every
/// device of the plan.
class CommExecutor : public LayerComm {
 public:
  /// `tl` and `plan` must outlive the executor. `platform` receives all
  /// traffic/time accounting (may be null in pure-correctness tests).
  /// `degrade` (may be null) counts retry/integrity recovery events.
  CommExecutor(const TwoLevelPartition* tl, const DedupPlan* plan,
               SimPlatform* platform,
               fault::DegradationPolicy* degrade = nullptr);

  /// Prepares transition buffers for a layer whose vertex rows have `dim`
  /// columns. Registers device memory; fails with OutOfMemory when a device
  /// cannot hold its transition + neighbor + gradient buffers.
  ///
  /// `num_slots` is the number of chunk batches the stage pipeline keeps in
  /// flight (1 = serial) — see the slot note above.
  /// The first in-flight chunk shares the merged transition buffer (§6), so
  /// it only costs its remote rows; each extra slot needs a full private
  /// neighbor-buffer copy, because the transition slots it would alias are
  /// already being rewritten for the next batch.
  ///
  /// `wire` selects the element width rows move (and transition payloads are
  /// stored) at: kFp32 keeps today's bit-exact memcpy path; kBf16/kFp16
  /// halve every wire byte.
  ///
  /// `integrity` turns the per-row CRC32C payload words on (default) or off.
  Status BeginLayer(int dim, int num_slots = 1,
                    kernels::CommPrecision wire = kernels::CommPrecision::kFp32,
                    bool integrity = true) override;

  /// Releases the layer's device buffers.
  void EndLayer() override;

  /// Algorithm 2: loads the neighbor representations of batch `j` on every
  /// device. `host` is the full (|V| x dim) layer buffer h^l in CPU memory;
  /// on return nbr_bufs->at(i) has shape (|N_ij| x dim).
  Status ForwardLoad(int j, const Tensor& host, std::vector<Tensor>* nbr_bufs);

  /// ForwardLoad into the executor-owned buffers of pipeline slot `slot`
  /// (0 <= slot < the num_slots passed to BeginLayer).
  Status ForwardLoadSlot(int j, int slot, const Tensor& host) override;

  /// The per-device neighbor buffers of pipeline slot `slot`, as filled by
  /// the most recent ForwardLoadSlot on that slot.
  std::vector<Tensor>& slot_buffers(int slot) override {
    return layer_.slot_nbr[static_cast<size_t>(slot)];
  }

  /// Algorithm 3: pushes per-chunk neighbor gradients into owner transition
  /// buffers (inter-GPU), then flushes slots whose vertices do not recur in
  /// batch j+1 to the host gradient buffer where the CPU accumulates them.
  Status BackwardAccumulate(int j, const std::vector<Tensor>& nbr_grads,
                            Tensor* host_grad) override;

  int dim() const { return layer_.dim; }
  kernels::CommPrecision wire() const { return layer_.wire; }

 private:
  /// Everything the in-flight layer owns. Host-side tensors are pool-backed
  /// and persist across BeginLayer/EndLayer: layers reshape them in place,
  /// so steady-state epochs perform no heap allocations here.
  struct LayerState {
    int dim = 0;
    kernels::CommPrecision wire = kernels::CommPrecision::kFp32;
    bool integrity = true;   ///< verify per-row CRC32C on every fetch
    int64_t elem_bytes = 4;  ///< wire bytes per element (CommElemBytes(wire))
    /// Float columns backing one (possibly compressed) transition row:
    /// dim at fp32, ceil(dim / 2) at a 16-bit wire precision.
    int64_t payload_cols = 0;
    std::vector<Tensor> trans;       ///< per-device transition data buffer
    std::vector<Tensor> trans_grad;  ///< per-device transition grad buffer
    /// Per buffer slot: per-device assembled neighbor buffers.
    std::vector<std::vector<Tensor>> slot_nbr;
    std::vector<DeviceAllocation> buf_alloc;
    /// Integrity sidecar, per device: CRC32C of each transition slot's
    /// payload (written by the load step, checked by every fetch) and the
    /// vertex each slot currently holds (the repair path re-encodes that
    /// vertex's host row when a CRC mismatch shows the device copy rotted).
    std::vector<std::vector<uint32_t>> trans_crc;
    std::vector<std::vector<VertexId>> slot_vertex;

    /// Bytes of one transition row's live payload (dim wire elements). CRCs
    /// cover exactly these bytes — at an odd dim with a 16-bit wire the last
    /// payload float is half padding, which step 1 never rewrites.
    int64_t PayloadBytes() const { return dim * elem_bytes; }
  };

  /// One ForwardLoad attempt (idempotent; the public entry point retries it
  /// on a transient failure).
  Status ForwardLoadAttempt(int j, const Tensor& host,
                            std::vector<Tensor>* nbr_bufs);
  /// One BackwardAccumulate attempt. Its fault site fires before any state
  /// mutation, so retrying a transient failure cannot double-accumulate.
  Status BackwardAccumulateAttempt(int j,
                                   const std::vector<Tensor>& nbr_grads,
                                   Tensor* host_grad);

  const TwoLevelPartition* tl_;
  const DedupPlan* plan_;
  SimPlatform* platform_;
  fault::DegradationPolicy* degrade_ = nullptr;
  /// Process-wide policy (HONGTU_RETRY_SPEC-aware) captured at construction.
  fault::RetryPolicy retry_ = fault::DefaultRetryPolicy();

  LayerState layer_;
};

}  // namespace hongtu
