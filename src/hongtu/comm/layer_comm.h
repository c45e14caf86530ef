/// \file layer_comm.h
/// \brief The data movement of one Algorithm-1 layer, as HongTuEngine's
/// layer loop sees it: BeginLayer/EndLayer around the batches, and per
/// batch j the Alg. 2 load into a pipeline slot and the Alg. 3 push,
/// accumulate and flush of its neighbor gradients. CommExecutor
/// (comm/executor.h) moves rows between all devices of one process;
/// net::RpcComm (net/rpc_comm.h) moves one cluster worker's rows to and
/// from the others. The per-device vectors are indexed by device id and
/// sized to the partition count; an engine touches only its hosted
/// devices' entries.

#pragma once

#include <vector>

#include "hongtu/common/status.h"
#include "hongtu/kernels/codec.h"
#include "hongtu/tensor/tensor.h"

namespace hongtu {

class LayerComm {
 public:
  LayerComm() = default;
  LayerComm(const LayerComm&) = delete;
  LayerComm& operator=(const LayerComm&) = delete;
  virtual ~LayerComm() = default;

  /// Prepares a layer whose vertex rows have `dim` columns, with
  /// `num_slots` batches in flight; rows cross the wire at `wire`.
  /// `integrity` asks for per-row CRC32C checks where rows rest in memory
  /// the process does not otherwise protect.
  virtual Status BeginLayer(int dim, int num_slots,
                            kernels::CommPrecision wire, bool integrity) = 0;
  /// Releases what BeginLayer registered.
  virtual void EndLayer() = 0;

  /// Algorithm 2: assembles batch `j`'s neighbor rows of every hosted device
  /// into slot `slot` (0 <= slot < num_slots) from the host layer buffer
  /// `host` (|V| x dim; only the hosted devices' own rows are read).
  virtual Status ForwardLoadSlot(int j, int slot, const Tensor& host) = 0;
  /// Per-device neighbor buffers of `slot`, as the last load filled them.
  virtual std::vector<Tensor>& slot_buffers(int slot) = 0;

  /// Algorithm 3: pushes batch `j`'s neighbor gradients (`nbr_grads[i]`
  /// for every hosted device i) to their owners, accumulates them in sender
  /// order, and flushes finished rows into `host_grad`.
  virtual Status BackwardAccumulate(int j,
                                    const std::vector<Tensor>& nbr_grads,
                                    Tensor* host_grad) = 0;
};

}  // namespace hongtu
