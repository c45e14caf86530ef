#include "hongtu/comm/executor.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "hongtu/common/crc32c.h"
#include "hongtu/common/parallel.h"
#include "hongtu/kernels/backend.h"

namespace hongtu {

namespace {
constexpr int64_t kF32 = static_cast<int64_t>(sizeof(float));
}

CommExecutor::CommExecutor(const TwoLevelPartition* tl, const DedupPlan* plan,
                           SimPlatform* platform,
                           fault::DegradationPolicy* degrade)
    : tl_(tl), plan_(plan), platform_(platform), degrade_(degrade) {}

Status CommExecutor::BeginLayer(int dim, int num_slots,
                                kernels::CommPrecision wire, bool integrity) {
  LayerState& c = layer_;
  EndLayer();
  c.dim = dim;
  c.wire = wire;
  c.integrity = integrity;
  c.elem_bytes = kernels::CommElemBytes(wire);
  // Compressed rows pack two 16-bit elements per float column; the payload
  // behind a transition row shrinks with the wire width.
  c.payload_cols = wire == kernels::CommPrecision::kFp32
                       ? dim
                       : (static_cast<int64_t>(dim) + 1) / 2;
  const int m = plan_->num_partitions;
  num_slots = std::max(1, num_slots);
  c.buf_alloc.clear();
  // Host-side buffers persist across layers and epochs: EnsureShape reuses
  // the existing pooled storage whenever the new layer's working set fits,
  // so steady-state BeginLayer performs no allocations.
  c.trans.resize(static_cast<size_t>(m));
  c.trans_grad.resize(static_cast<size_t>(m));
  c.slot_nbr.resize(static_cast<size_t>(num_slots));
  for (auto& slot : c.slot_nbr) slot.resize(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    const int64_t slots = plan_->buffer_slots[i];
    // Transition data: every slot the fetch plans read is written by the
    // same batch's load step (batch 0 reuses nothing), so no zero fill.
    // Transition gradients accumulate across batches and must start clean —
    // and stay fp32 regardless of the wire precision (the accumulation
    // contract of kernels/codec.h).
    c.trans[i].EnsureShape(slots, c.payload_cols);
    c.trans_grad[i].EnsureShapeZeroed(slots, dim);
    if (c.integrity) {
      // Integrity sidecar. No clearing needed: the plan guarantees every
      // slot a fetch reads was written by a load step of this layer first,
      // which (re)stamps both entries. Steady-state resizes are no-ops.
      if (c.trans_crc.size() != static_cast<size_t>(m)) {
        c.trans_crc.resize(static_cast<size_t>(m));
        c.slot_vertex.resize(static_cast<size_t>(m));
      }
      c.trans_crc[i].resize(static_cast<size_t>(slots));
      c.slot_vertex[i].resize(static_cast<size_t>(slots));
    }
    if (platform_ != nullptr) {
      // Device memory accounting follows the paper's merged-buffer design
      // (§6 "Data buffer deduplication"): the transition set and the chunk's
      // neighbor set share one buffer, so beyond the transition slots only
      // the remotely-fetched rows need extra storage. The data side (and
      // every extra in-flight slot's private neighbor copy) is charged at
      // the wire width: the modeled device keeps payloads compressed end to
      // end and its aggregation kernels consume 16-bit rows directly (as GPU
      // SpMM does) — the decode into fp32 below is the CPU simulation
      // vehicle, not part of the modeled footprint. The gradient side stays
      // a full fp32 accumulator and is charged as such.
      int64_t max_remote = 0;
      int64_t max_nbr = 0;
      for (int j = 0; j < plan_->num_chunks; ++j) {
        max_remote = std::max(max_remote, plan_->fetch[i][j].remote_rows);
        max_nbr = std::max(
            max_nbr, static_cast<int64_t>(plan_->fetch[i][j].owner.size()));
      }
      const int64_t bytes =
          (slots + max_remote) * dim * (c.elem_bytes + kF32) +
          (num_slots - 1) * max_nbr * dim * c.elem_bytes;
      HT_RETURN_IF_ERROR(
          fault::RetryTransient(retry_, degrade_, "pool.alloc", [&] {
            return platform_->device(i).Allocate(bytes, "comm buffers");
          }));
      c.buf_alloc.emplace_back(&platform_->device(i), bytes);
    }
  }
  return Status::OK();
}

void CommExecutor::EndLayer() {
  // Only the device-memory registrations are released; the host-side pooled
  // buffers stay parked for the next layer.
  layer_.buf_alloc.clear();
  layer_.dim = 0;
}

Status CommExecutor::ForwardLoad(int j, const Tensor& host,
                                 std::vector<Tensor>* nbr_bufs) {
  // The whole load is idempotent — every transition/neighbor row it writes
  // is recomputed from the host buffer — so a transient failure (injected
  // or an unrepaired integrity loss) retries it wholesale.
  return fault::RetryTransient(retry_, degrade_, "comm.fetch", [&] {
    return ForwardLoadAttempt(j, host, nbr_bufs);
  });
}

Status CommExecutor::ForwardLoadAttempt(int j, const Tensor& host,
                                        std::vector<Tensor>* nbr_bufs) {
  LayerState& c = layer_;
  if (c.dim == 0 || host.cols() != c.dim) {
    return Status::Invalid("CommExecutor::ForwardLoad: BeginLayer(dim) "
                           "mismatch with host buffer");
  }
  // Fault site `comm.fetch`. A corrupt fire does not fail the call here —
  // it flips payload bits after the load step below, exercising the CRC
  // verify-and-repair path the way real link corruption would. The other
  // kinds act as fault::Poke has them act at any non-net site.
  const fault::Kind fired = fault::Check(fault::Site::kCommFetch);
  bool corrupt_payload = fired == fault::Kind::kCorrupt;
  if (!corrupt_payload) {
    HT_RETURN_IF_ERROR(fault::Injected(fault::Site::kCommFetch, fired));
  }
  const int m = plan_->num_partitions;
  const kernels::Backend kb = kernels::ActiveBackend();
  const bool packed = c.wire != kernels::CommPrecision::kFp32;
  nbr_bufs->resize(m);

  // Step 1 (Alg. 2 lines 1-4): fill transition buffers. N^gpu entries are
  // reused in place; N^cpu entries are loaded from host (zero-copy model),
  // encoded to the wire width as they land. Traffic counts (h2d/ru rows)
  // are epoch-invariant and come precomputed from the plan.
  for (int i = 0; i < m; ++i) {
    const TransitionStep& step = plan_->transition[i][j];
    Tensor& tb = c.trans[i];
    ParallelForChunked(
        0, static_cast<int64_t>(step.vertices.size()),
        [&](int64_t lo, int64_t hi) {
          for (int64_t p = lo; p < hi; ++p) {
            // A reused slot already holds this vertex's payload (and its
            // still-valid CRC/vertex sidecar from the batch that wrote it).
            if (step.reused[p]) continue;
            if (packed) {
              kernels::EncodeRows(
                  kb, c.wire, host.row(step.vertices[p]), c.dim,
                  reinterpret_cast<uint16_t*>(tb.row(step.slots[p])));
            } else {
              std::memcpy(tb.row(step.slots[p]),
                          host.row(step.vertices[p]),
                          static_cast<size_t>(c.dim) * sizeof(float));
            }
            if (c.integrity) {
              const int64_t slot = step.slots[p];
              c.trans_crc[i][static_cast<size_t>(slot)] =
                  Crc32c(tb.row(slot), static_cast<size_t>(c.PayloadBytes()));
              c.slot_vertex[i][static_cast<size_t>(slot)] = step.vertices[p];
            }
          }
        });
    if (platform_ != nullptr) {
      // NUMA-remote rows (Baseline only) cross the socket interconnect.
      const int64_t remote = std::min(step.numa_remote_rows, step.h2d_rows);
      platform_->AddH2D(i, (step.h2d_rows - remote) * c.dim * c.elem_bytes);
      platform_->AddH2DRemote(i, remote * c.dim * c.elem_bytes);
      platform_->AddReuse(i, step.ru_rows * c.dim * c.elem_bytes);
    }
  }
  if (platform_ != nullptr) platform_->Synchronize();

  if (corrupt_payload) {
    // Injected corruption: flip every byte of the first transition row this
    // batch will fetch. With integrity on the CRC check below catches and
    // repairs it; with integrity off it flows into the kernels silently —
    // which is exactly the baseline the integrity feature exists to beat.
    for (int i = 0; i < m && corrupt_payload; ++i) {
      const FetchPlan& f = plan_->fetch[i][j];
      for (int o = 0; o < m && corrupt_payload; ++o) {
        if (f.group_off[o + 1] <= f.group_off[o]) continue;
        const int64_t slot = f.group_slot[static_cast<size_t>(f.group_off[o])];
        unsigned char* row =
            reinterpret_cast<unsigned char*>(c.trans[o].row(slot));
        for (int64_t b = 0; b < c.PayloadBytes(); ++b) row[b] ^= 0xFF;
        corrupt_payload = false;
      }
    }
  }

  // Step 2 (Alg. 2 lines 5-8): assemble neighbor buffers by pulling from
  // local/remote transition buffers (GPUDirect P2P model). The interleaved
  // schedule of the paper avoids contention; here devices are processed
  // sequentially so results are deterministic. The owner-grouped plan
  // arrays make each group a pure indexed copy against one owner buffer —
  // a memcpy at fp32, a decode (convert-on-copy) at a 16-bit wire: the link
  // carries the compressed payload, the consumer-side fp32 working copy is
  // assembled in passing.
  std::atomic<bool> unrepairable{false};
  for (int i = 0; i < m; ++i) {
    const FetchPlan& f = plan_->fetch[i][j];
    const int64_t nn = static_cast<int64_t>(f.owner.size());
    Tensor& nb = (*nbr_bufs)[i];
    nb.EnsureShape(nn, c.dim);  // every row is assembled below
    for (int o = 0; o < m; ++o) {
      Tensor& tb = c.trans[o];
      ParallelForChunked(
          f.group_off[o], f.group_off[o + 1], [&](int64_t lo, int64_t hi) {
            for (int64_t k = lo; k < hi; ++k) {
              const int64_t slot = f.group_slot[k];
              if (c.integrity) {
                // Verify the payload against its load-time CRC before the
                // row is consumed. On mismatch, repair in place from the
                // host source of truth (an extra metered H2D row) and
                // re-verify. Race-free: slots are unique within a group,
                // groups of one device run sequentially, and device loops
                // are sequential.
                const uint32_t want =
                    c.trans_crc[o][static_cast<size_t>(slot)];
                if (Crc32c(tb.row(slot),
                           static_cast<size_t>(c.PayloadBytes())) != want) {
                  if (packed) {
                    kernels::EncodeRows(
                        kb, c.wire,
                        host.row(c.slot_vertex[o][static_cast<size_t>(slot)]),
                        c.dim, reinterpret_cast<uint16_t*>(tb.row(slot)));
                  } else {
                    std::memcpy(
                        tb.row(slot),
                        host.row(c.slot_vertex[o][static_cast<size_t>(slot)]),
                        static_cast<size_t>(c.dim) * sizeof(float));
                  }
                  if (platform_ != nullptr) {
                    platform_->AddH2D(o, c.dim * c.elem_bytes);
                  }
                  if (Crc32c(tb.row(slot),
                             static_cast<size_t>(c.PayloadBytes())) != want) {
                    // Even the host row no longer reproduces the recorded
                    // CRC — the sidecar itself rotted. Fail the attempt;
                    // the retry wrapper reloads the layer wholesale.
                    unrepairable.store(true, std::memory_order_relaxed);
                    continue;
                  }
                  if (degrade_ != nullptr) {
                    degrade_->Record(
                        fault::DegradeEvent::kIntegrityRefetch,
                        "comm.fetch: CRC mismatch on device " +
                            std::to_string(o) + " slot " +
                            std::to_string(slot) + ", repaired from host");
                  }
                }
              }
              if (packed) {
                kernels::DecodeRows(
                    kb, c.wire,
                    reinterpret_cast<const uint16_t*>(tb.row(slot)),
                    c.dim, nb.row(f.group_pos[k]));
              } else {
                std::memcpy(nb.row(f.group_pos[k]), tb.row(slot),
                            static_cast<size_t>(c.dim) * sizeof(float));
              }
            }
          });
    }
    if (platform_ != nullptr) {
      platform_->AddD2D(i, f.remote_rows * c.dim * c.elem_bytes);
      platform_->AddReuse(i, (nn - f.remote_rows) * c.dim * c.elem_bytes);
    }
  }
  if (platform_ != nullptr) platform_->Synchronize();
  if (unrepairable.load(std::memory_order_relaxed)) {
    return Status::DataLoss(
        "CommExecutor::ForwardLoad: transition payload failed CRC32C even "
        "after host refetch");
  }
  return Status::OK();
}

Status CommExecutor::ForwardLoadSlot(int j, int slot, const Tensor& host) {
  if (slot < 0 || static_cast<size_t>(slot) >= layer_.slot_nbr.size()) {
    return Status::Invalid("CommExecutor::ForwardLoadSlot: slot out of "
                           "range; BeginLayer(dim, num_slots) first");
  }
  return ForwardLoad(j, host, &layer_.slot_nbr[static_cast<size_t>(slot)]);
}

Status CommExecutor::BackwardAccumulate(int j,
                                        const std::vector<Tensor>& nbr_grads,
                                        Tensor* host_grad) {
  return fault::RetryTransient(retry_, degrade_, "comm.flush", [&] {
    return BackwardAccumulateAttempt(j, nbr_grads, host_grad);
  });
}

Status CommExecutor::BackwardAccumulateAttempt(
    int j, const std::vector<Tensor>& nbr_grads, Tensor* host_grad) {
  LayerState& c = layer_;
  if (c.dim == 0 || host_grad->cols() != c.dim) {
    return Status::Invalid("CommExecutor::BackwardAccumulate: BeginLayer(dim) "
                           "mismatch with host gradient buffer");
  }
  // Fault site `comm.flush`. Must fire before any accumulation happens:
  // the push/flush below mutates trans_grad and host_grad, so the only
  // safe retry point is the very entry of the attempt.
  HT_RETURN_IF_ERROR(fault::Poke(fault::Site::kCommFlush));
  const int m = plan_->num_partitions;
  const kernels::Backend kb = kernels::ActiveBackend();
  const bool packed = c.wire != kernels::CommPrecision::kFp32;

  // Step 1 (Alg. 3 lines 1-4): push neighbor gradients to owner transition
  // grad buffers. Devices are processed sequentially (the paper interleaves
  // P2P windows to avoid contention; sequential = deterministic here), but
  // within one device the owner-grouped plan arrays parallelize the
  // accumulation: slots are unique inside a plan, so no two entries of a
  // group write the same transition row. At a 16-bit wire each pushed row is
  // quantized once in flight (QuantizeAccumRows) — the transition-gradient
  // accumulator itself stays fp32.
  for (int i = 0; i < m; ++i) {
    const FetchPlan& f = plan_->fetch[i][j];
    const Tensor& ng = nbr_grads[i];
    for (int o = 0; o < m; ++o) {
      Tensor& tg = c.trans_grad[o];
      ParallelForChunked(
          f.group_off[o], f.group_off[o + 1], [&](int64_t lo, int64_t hi) {
            for (int64_t k = lo; k < hi; ++k) {
              kernels::QuantizeAccumRows(kb, c.wire, ng.row(f.group_pos[k]),
                                         c.dim, tg.row(f.group_slot[k]));
            }
          });
    }
    if (platform_ != nullptr) {
      platform_->AddD2D(i, f.remote_rows * c.dim * c.elem_bytes);
    }
  }
  if (platform_ != nullptr) platform_->Synchronize();

  // Step 2 (Alg. 3 lines 5-8): flush slots whose vertex does not recur in
  // the next batch; the host CPU accumulates them into grad buffer. Slots
  // retained (flush=0) keep accumulating across batches (in-place reuse).
  // A flushed row crosses the host link once — quantized at the wire width,
  // decoded into the fp32 host accumulator (fp32 flush accumulation).
  // Race-free parallel: vertices are unique within a step, slots unique per
  // device; the flushed-row count comes precomputed from the plan.
  for (int i = 0; i < m; ++i) {
    const TransitionStep& step = plan_->transition[i][j];
    Tensor& tg = c.trans_grad[i];
    ParallelForChunked(
        0, static_cast<int64_t>(step.vertices.size()),
        [&](int64_t lo, int64_t hi) {
          for (int64_t p = lo; p < hi; ++p) {
            if (!step.flush[p]) continue;
            float* dst = host_grad->row(step.vertices[p]);
            float* src = tg.row(step.slots[p]);
            if (packed) {
              kernels::QuantizeAccumRows(kb, c.wire, src, c.dim, dst);
              std::memset(src, 0,
                          static_cast<size_t>(c.dim) * sizeof(float));
            } else {
              for (int d = 0; d < c.dim; ++d) {
                dst[d] += src[d];
                src[d] = 0.0f;  // slot is recycled clean
              }
            }
          }
        });
    if (platform_ != nullptr) {
      const int64_t remote = std::min(step.numa_remote_rows, step.flush_rows);
      platform_->AddH2D(i, (step.flush_rows - remote) * c.dim * c.elem_bytes);
      platform_->AddH2DRemote(i, remote * c.dim * c.elem_bytes);
      platform_->AddCpuAccum(step.flush_rows * c.dim * kF32);
    }
  }
  if (platform_ != nullptr) platform_->Synchronize();
  return Status::OK();
}

}  // namespace hongtu
