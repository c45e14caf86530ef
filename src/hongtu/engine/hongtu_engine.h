/// \file hongtu_engine.h
/// \brief The HongTu training engine: partition-based CPU-offloaded
/// full-graph GNN training with recomputation-caching-hybrid intermediate
/// data management and deduplicated communication (Algorithm 1).
///
/// Per-layer vertex representations h^l and gradients (and, for cacheable
/// layers, the AGGREGATE checkpoints) live in host memory; each batch loads
/// one chunk per device through the deduplicated communication framework,
/// computes on the simulated GPU, and streams results back.
///
/// Each layer runs as one three-stage pipeline (load / compute / store)
/// with `max_inflight` batches in flight, clamped to [1, chunks]. At
/// max_inflight = 1 the batches retire strictly in order and nothing
/// overlaps; deeper windows overlap communication with compute. Every depth
/// gives bitwise the same weights.
///
/// Devices run concurrently, as the m GPUs do: the compute stage runs every
/// device's chunk kernels at once on a WorkerGroup (device 0 on the stage's
/// own thread, device i >= 1 on worker i, which allocates from pool arena
/// i). Each device holds its own parameter replica — device 0's is model_,
/// devices 1..m-1 have copies refreshed at every forward pass — and
/// accumulates its own gradients; the all-reduce sums them into model_ in
/// device order, so weights do not depend on thread timing.
///
/// An engine hosts every device (Create, moving rows with CommExecutor) or
/// one cluster worker's device (CreateHosting, moving rows with the given
/// LayerComm). Stages, workspaces, replicas and loss vertices range over
/// the hosted devices; partition and plan always cover all of them.

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "hongtu/comm/dedup_plan.h"
#include "hongtu/common/parallel.h"
#include "hongtu/common/pipeline.h"
#include "hongtu/comm/executor.h"
#include "hongtu/comm/layer_comm.h"
#include "hongtu/comm/reorganize.h"
#include "hongtu/engine/engine.h"
#include "hongtu/gnn/loss.h"
#include "hongtu/gnn/model.h"
#include "hongtu/graph/datasets.h"

namespace hongtu {

// The HongTu-specific knobs (chunks_per_partition, dedup, reorganize,
// hybrid_cache, edge_schedules, partition_seed) and the pipeline depth
// (max_inflight) live in EngineConfig (engine/engine.h).

class HongTuEngine : public Engine {
 public:
  /// Preprocesses (2-level partition, reorganization, dedup plan) and
  /// allocates host-side buffers. `dataset` must outlive the engine.
  static Result<std::unique_ptr<HongTuEngine>> Create(const Dataset* dataset,
                                                      ModelConfig model_config,
                                                      EngineConfig options);

  /// Builds a hosting engine's data movement after preprocessing; it
  /// records retries into `degrade`, the engine's policy.
  using CommFactory = std::function<std::unique_ptr<LayerComm>(
      const DedupPlan& plan, fault::DegradationPolicy* degrade)>;
  /// An engine that hosts only `device` of options.num_devices (a cluster
  /// worker). It trains through ForwardPass + LossAndBackward; summing its
  /// gradients (model()'s) across devices is the caller's job.
  static Result<std::unique_ptr<HongTuEngine>> CreateHosting(
      const Dataset* dataset, ModelConfig model_config, EngineConfig options,
      int device, const CommFactory& make_comm);

  /// One full forward+backward epoch with parameter update.
  Result<EpochStats> TrainEpoch();

  /// Algorithm 1 lines 1-9: forward over all layers and batches; fills the
  /// h^l buffers (and caches) of the hosted devices' vertices.
  Status ForwardPass();
  /// Lines 10-20 without the update: the loss over the hosted devices'
  /// train vertices, normalized by the count of all train vertices (so a
  /// device seeds the same gradient rows whichever engine hosts it), then
  /// backward. Each hosted device's gradients stay in its own replica.
  Result<LossResult> LossAndBackward();
  /// h^L: the logits of the last ForwardPass (rows of hosted vertices).
  const Tensor& logits() const { return h_.back(); }

  // ---- Engine interface ----------------------------------------------------
  Result<EpochStats> RunEpoch() override { return TrainEpoch(); }
  /// Forward-only pass; returns accuracy over the given split.
  Result<double> EvaluateAccuracy(SplitRole role) override;
  const char* name() const override { return "hongtu"; }

  const DedupPlan& plan() const { return plan_; }
  const TwoLevelPartition& partition() const { return tl_; }
  /// Preprocessing wall-clock split: {partition, reorganize+plan} seconds.
  double partition_seconds() const { return partition_seconds_; }
  double dedup_preprocess_seconds() const { return dedup_preprocess_seconds_; }

  SimPlatform* platform() override { return platform_.get(); }
  GnnModel* model() override { return &model_; }
  /// Optimizer state — the checkpoint layer snapshots/restores it together
  /// with the parameters (engine/checkpoint.h).
  Adam* adam() override { return &adam_; }
  /// The engine's degradation record (common/fault.h). TrainEpoch resets the
  /// per-epoch counters and snapshots them into EpochStats::recovery.
  fault::DegradationPolicy* degradation() override { return &degrade_; }
  const EngineConfig& options() const { return options_; }

 private:
  HongTuEngine() = default;

  /// `hosted` is a contiguous device range; null `make_comm` = CommExecutor.
  static Result<std::unique_ptr<HongTuEngine>> Build(
      const Dataset* dataset, ModelConfig model_config, EngineConfig options,
      std::vector<int> hosted, const CommFactory* make_comm);

  /// Backward from the loss gradient in grad_[L] down to layer 0, which
  /// forms parameter gradients only (no grad h^0 and no gradient push).
  Status BackwardPass();
  /// Sums the device replicas' gradients into model_ in device order, then
  /// takes the Adam step on model_.
  Status AllReduceAndStep();

  /// True when this process holds every device (Create).
  bool HostsAllDevices() const {
    return static_cast<int>(hosted_.size()) == options_.num_devices;
  }
  /// Layer l of hosted device i's parameter replica (model_ for the first
  /// hosted device).
  Layer* DeviceLayer(int i, int l) {
    const int k = i - hosted_.front();
    return k == 0 ? model_.layer(l)
                  : replicas_[static_cast<size_t>(k - 1)].layer(l);
  }
  /// Copies model_'s parameters into every replica.
  Status SyncReplicas();
  /// Runs `fn(i)` for every hosted device i at once on device_workers_,
  /// bound to the compute lane and to the pool arena of i's position among
  /// the hosted devices. Returns the first error in device order.
  Status RunDevices(const std::function<Status(int)>& fn);

  /// Runs `layer(Depth())`. When a deeper-than-1 attempt fails on
  /// OutOfMemory or a transient cause, records the degradation event and
  /// replays the layer as `layer(1)` (retrying that replay's transient
  /// failures); permanent errors, and failures at depth 1, pass through.
  /// So does every failure of a hosting engine: its layers are collective
  /// with the other workers, so the cluster's recovery ladder handles them.
  /// `direction` and `l` only name the layer in the event record.
  Status RunWithSerialFallback(const char* direction, int l,
                               const std::function<Status(int)>& layer);

  /// One layer of Algorithm 1 — load (Alg. 2), compute, store (Alg. 1
  /// line 9 / Alg. 3) over every chunk batch — with `d` batches in flight.
  Status ForwardLayer(int l, int d);
  Status BackwardLayer(int l, int d);
  /// Shared scaffold of the layer loops: registers comm buffers
  /// (`comm_slots` in-flight neighbor slots), reserves `d` worst-case chunk
  /// working sets per device (the compute stage must never race the other
  /// stages for the allocator), then runs load/compute/store as a
  /// StagePipeline over all batches with `d` in flight. Each stage item
  /// ends in a sim-platform barrier; for d > 1 the layer runs inside a
  /// metering overlap region, at d = 1 batches retire strictly in order and
  /// nothing overlaps.
  Status RunPipelinedLayer(
      int in_dim, int comm_slots, int d,
      const std::function<int64_t(const Chunk&)>& scratch_bytes,
      StagePipeline::StageFn load, StagePipeline::StageFn compute,
      StagePipeline::StageFn store);
  /// Batches in flight: max_inflight clamped to [1, chunks_per_partition].
  int Depth() const;

  /// Per-(pipeline-slot, device) chunk workspaces, pool-backed and reused
  /// across chunks, layers and epochs. Each hot-loop tensor is reshaped in
  /// place with EnsureShape, so the chunk loops never allocate once the
  /// workspaces are pre-sized (PresizeWorkspaces) to the worst-case chunk.
  struct SlotWorkspace {
    std::vector<Tensor> out;       ///< forward dst_h output (per device)
    std::vector<Tensor> agg;       ///< AGGREGATE output / reloaded checkpoint
    std::vector<Tensor> d_dst;     ///< destination gradients from host
    std::vector<Tensor> dst_rows;  ///< destinations' own h^l rows (hybrid)
    std::vector<Tensor> d_src;     ///< neighbor gradients (accumulator)
  };

  /// Sizes ws_ for Depth() slots and grows every workspace
  /// tensor to the worst-case chunk of its device across all layers, so the
  /// first epoch already runs allocation-free in the engine's own loops.
  void PresizeWorkspaces();

  /// Compiles the per-(chunk, direction) edge schedules (options_.
  /// edge_schedules), sized for the widest layer dimension, accounts their
  /// bytes against each device and the platform's schedule meter. A
  /// direction whose random side fits one band compiles nothing, and a
  /// device whose chunks all compile nothing builds, allocates and meters
  /// nothing. A device whose capacity cannot hold its schedules keeps none
  /// (single-pass kernels) instead of failing.
  void BuildEdgeSchedules();

  /// The compiled schedules of chunk (i, j); null when schedules are
  /// disabled, device i could not hold them, or neither direction of the
  /// chunk compiled (bytes() == 0).
  const ChunkSchedules* chunk_schedules(int i, int j) const {
    if (scheds_.empty() || scheds_[static_cast<size_t>(i)].empty()) {
      return nullptr;
    }
    const ChunkSchedules& s =
        scheds_[static_cast<size_t>(i)][static_cast<size_t>(j)];
    return s.bytes() > 0 ? &s : nullptr;
  }

  const Dataset* ds_ = nullptr;
  EngineConfig options_;
  /// The hosted devices, ascending and contiguous: all m, or one.
  std::vector<int> hosted_;
  /// The first hosted device's replica; the one Adam and checkpoints use.
  GnnModel model_;
  std::vector<GnnModel> replicas_;  ///< the other hosted devices
  std::unique_ptr<WorkerGroup> device_workers_;  ///< one task per device
  Adam adam_;
  /// Counted record of every graceful degradation (shared with comm_).
  fault::DegradationPolicy degrade_;

  TwoLevelPartition tl_;
  DedupPlan plan_;
  std::unique_ptr<SimPlatform> platform_;
  std::unique_ptr<LayerComm> comm_;

  std::vector<Tensor> h_;      ///< h^l, l = 0..L (host)
  std::vector<Tensor> grad_;   ///< grad h^l, l = 1..L (host); [0] is empty
  std::vector<Tensor> cache_;  ///< AGGREGATE checkpoints per layer (host)
  std::vector<bool> use_cache_;  ///< per layer: hybrid cache active
  std::vector<SlotWorkspace> ws_;  ///< per-slot reusable chunk workspaces
  /// Per (device, chunk) compiled aggregation schedules ([m][n]; a device's
  /// row is empty when none of its chunks compiled or they did not fit) and
  /// their device-memory registrations.
  std::vector<std::vector<ChunkSchedules>> scheds_;
  std::vector<DeviceAllocation> sched_alloc_;

  double partition_seconds_ = 0.0;
  double dedup_preprocess_seconds_ = 0.0;
};

}  // namespace hongtu
