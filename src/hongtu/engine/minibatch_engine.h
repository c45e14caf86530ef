/// \file minibatch_engine.h
/// \brief Mini-batch GNN training with layered neighbor sampling — the
/// DistDGL role in Table 6 and the DGL-MB curves of Fig. 8.
///
/// Each step samples an L-level block structure from a batch of training
/// vertices with per-layer fanout, then trains on the sampled blocks.
/// Sampled block sizes grow roughly as fanout^L (the neighbor-explosion
/// problem, §7.2), which this engine reproduces both in runtime and in
/// device-memory pressure (OOM for deep models).

#pragma once

#include <memory>
#include <vector>

#include "hongtu/engine/engine.h"
#include "hongtu/gnn/loss.h"
#include "hongtu/gnn/model.h"
#include "hongtu/graph/datasets.h"
#include "hongtu/partition/two_level.h"

namespace hongtu {

// Of the flattened EngineConfig (engine.h) this engine consults fanout,
// batch_size and seed.

class MiniBatchEngine : public Engine {
 public:
  static Result<std::unique_ptr<MiniBatchEngine>> Create(
      const Dataset* dataset, ModelConfig model_config,
      EngineConfig options);

  /// One epoch = one pass over all training vertices in shuffled batches.
  Result<EpochStats> TrainEpoch();

  // ---- Engine interface ----------------------------------------------------
  Result<EpochStats> RunEpoch() override { return TrainEpoch(); }
  /// Full-neighbor (unsampled) inference accuracy with current parameters.
  Result<double> EvaluateAccuracy(SplitRole role) override;
  const char* name() const override { return "minibatch"; }

  GnnModel* model() override { return &model_; }
  SimPlatform* platform() override { return platform_.get(); }

 private:
  MiniBatchEngine() = default;

  const Dataset* ds_ = nullptr;
  EngineConfig options_;
  GnnModel model_;
  Adam adam_;
  std::unique_ptr<SimPlatform> platform_;
  Chunk full_chunk_;  ///< for unsampled evaluation
  uint64_t epoch_counter_ = 0;
};

/// Samples a block: for each destination keep at most `fanout` random
/// in-edges (the destination's self-loop is always kept). Exposed for tests.
Chunk SampleChunk(const Graph& g, std::vector<VertexId> dst_vertices,
                  int fanout, Rng* rng);

}  // namespace hongtu
