/// \file cpu_cluster_engine.h
/// \brief Distributed CPU full-graph training: a calibrated analytic model
/// (the CPU rows of Tables 5 and 7) and, under HONGTU_CLUSTER=tcp|uds, a
/// real multi-process cluster backend.
///
/// The paper runs DistGNN on a 16-node cluster (56 vCPU + 512 GB per node,
/// 20 Gbps network). No such cluster exists here, so by default this engine
/// is a calibrated analytic model over the metis-partitioned graph:
/// per-node memory (vertex + intermediate + neighbor-replica +
/// communication-buffer data) decides OOM, and epoch time is a CPU roofline
/// plus network transfer of boundary vertex data in both passes.
///
/// When `cluster_transport` is set ("tcp" or "uds", default from the
/// HONGTU_CLUSTER environment variable), the engine instead becomes real:
/// a ClusterCoordinator (net/cluster.h) forks one worker process per
/// partition, and RunEpoch returns measured wall-clock plus merged recovery
/// counters. Each worker is a HongTuEngine that hosts its own partition's
/// device, running the single-process engine's layer loop (pipeline,
/// hybrid cache, pooled workspaces); its data movement is RPC (net/
/// rpc_comm.h): transition rows and gradients cross the resilient
/// transport along the owner-grouped dedup FetchPlans. The coordinator sums
/// the workers' gradients in rank order and steps Adam, so a W-worker
/// cluster ends on the weights of a single-process HongTuEngine with W
/// devices. A worker killed mid-epoch is detected by heartbeat/EOF and
/// replayed in-epoch (or, on the coarsest rung, the epoch restores from the
/// latest HTCK checkpoint and reruns) — final weights bitwise-identical to
/// an unkilled run. Binaries using this mode must call
/// net::MaybeRunClusterWorker() first thing in main().

#pragma once

#include <memory>
#include <vector>

#include "hongtu/engine/engine.h"
#include "hongtu/gnn/model.h"
#include "hongtu/graph/datasets.h"
#include "hongtu/net/cluster.h"
#include "hongtu/partition/two_level.h"

namespace hongtu {

// Of the flattened EngineConfig (engine.h) this engine consults num_nodes,
// node_memory_bytes, network_bandwidth, node_flops, node_mem_bw,
// scaling_exponent, partition_seed and the cluster_* fields.

class CpuClusterEngine : public Engine {
 public:
  static Result<std::unique_ptr<CpuClusterEngine>> Create(
      const Dataset* dataset, ModelConfig model_config,
      EngineConfig options);

  /// Per-epoch estimate; fails with OutOfMemory when a node cannot hold its
  /// share of the training state.
  Result<EpochStats> EstimateEpoch() const;

  // ---- Engine interface ----------------------------------------------------
  /// Analytic mode: the per-epoch estimate (no parameters are trained).
  /// Cluster mode: one real distributed epoch, measured wall-clock.
  Result<EpochStats> RunEpoch() override;
  Result<double> EvaluateAccuracy(SplitRole role) override;
  const char* name() const override {
    return coordinator_ ? "cpu-cluster-mp" : "cpu-cluster";
  }
  GnnModel* model() override {
    return coordinator_ ? coordinator_->model() : &model_;
  }
  Adam* adam() override {
    return coordinator_ ? coordinator_->adam() : nullptr;
  }
  fault::DegradationPolicy* degradation() override {
    return coordinator_ ? coordinator_->degradation() : nullptr;
  }

  /// Max bytes any node must hold (diagnostic).
  int64_t MaxNodeBytes() const;

  /// Null in analytic mode.
  net::ClusterCoordinator* coordinator() { return coordinator_.get(); }

 private:
  CpuClusterEngine() = default;

  const Dataset* ds_ = nullptr;
  EngineConfig options_;
  GnnModel model_;
  /// Per node: owned vertices, owned edges, neighbor-set size.
  struct NodeShare {
    int64_t vertices = 0;
    int64_t edges = 0;
    int64_t neighbors = 0;
  };
  std::vector<NodeShare> shares_;
  /// Non-null when cluster_transport selected the real multi-process mode.
  std::unique_ptr<net::ClusterCoordinator> coordinator_;
};

}  // namespace hongtu
