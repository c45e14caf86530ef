/// \file inmemory_engine.h
/// \brief All-in-GPU full-graph training (the DGL / Sancus / HongTu-IM role
/// in Tables 5 and 6).
///
/// Keeps every layer's vertex representations, gradients AND stored
/// intermediates resident in device memory (original training, Fig. 4a).
/// With one device it models DGL; with several it models Sancus/HongTu-IM:
/// vertex data is metis-partitioned across devices and remote neighbor
/// aggregation costs inter-GPU traffic. Exceeding the aggregate capacity
/// returns OutOfMemory — the OOM cells of Table 6.
///
/// Numerically this engine is the *reference*: it trains on the dense full
/// graph in one shot, so equivalence tests compare HongTuEngine against it.

#pragma once

#include <memory>
#include <vector>

#include "hongtu/engine/engine.h"
#include "hongtu/gnn/loss.h"
#include "hongtu/gnn/model.h"
#include "hongtu/graph/datasets.h"
#include "hongtu/partition/two_level.h"

namespace hongtu {

// Of the flattened EngineConfig (engine.h) this engine consults
// edge_schedules and partition_seed.

class InMemoryEngine : public Engine {
 public:
  static Result<std::unique_ptr<InMemoryEngine>> Create(
      const Dataset* dataset, ModelConfig model_config,
      EngineConfig options);

  /// One epoch; fails with OutOfMemory when the training state does not fit
  /// the devices.
  Result<EpochStats> TrainEpoch();

  // ---- Engine interface ----------------------------------------------------
  Result<EpochStats> RunEpoch() override { return TrainEpoch(); }
  Result<double> EvaluateAccuracy(SplitRole role) override;
  const char* name() const override { return "inmemory"; }

  /// Final-layer logits from the last forward (for tests).
  const Tensor& logits() const { return h_.back(); }
  GnnModel* model() override { return &model_; }
  SimPlatform* platform() override { return platform_.get(); }

 private:
  InMemoryEngine() = default;

  Status ForwardPass(bool store_ctx);
  Status ReserveResidentMemory();

  const Dataset* ds_ = nullptr;
  EngineConfig options_;
  GnnModel model_;
  Adam adam_;
  std::unique_ptr<SimPlatform> platform_;

  Chunk full_chunk_;  ///< the whole graph as one chunk (identity src space)
  /// Compiled aggregation schedules of the full chunk (null when disabled,
  /// not affordable, or both random sides fit one band) and their device
  /// registration.
  std::unique_ptr<ChunkSchedules> sched_;
  DeviceAllocation sched_alloc_;
  std::vector<Tensor> h_;  ///< resident h^l
  std::vector<std::unique_ptr<LayerCtx>> ctx_;
  std::vector<DeviceAllocation> resident_;
  /// Replication factor of the m-way partition; drives inter-GPU traffic.
  double alpha_m_ = 1.0;
};

}  // namespace hongtu
