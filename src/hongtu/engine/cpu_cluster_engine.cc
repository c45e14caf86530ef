#include "hongtu/engine/cpu_cluster_engine.h"

#include <algorithm>
#include <cmath>

#include "hongtu/sim/memory_model.h"

namespace hongtu {

namespace {
constexpr int64_t kF32 = static_cast<int64_t>(sizeof(float));
}

Result<std::unique_ptr<CpuClusterEngine>> CpuClusterEngine::Create(
    const Dataset* dataset, ModelConfig model_config,
    EngineConfig options) {
  if (dataset == nullptr) {
    return Status::Invalid("CpuClusterEngine: null dataset");
  }
  auto engine = std::unique_ptr<CpuClusterEngine>(new CpuClusterEngine());
  engine->ds_ = dataset;
  engine->options_ = options;
  HT_ASSIGN_OR_RETURN(engine->model_, GnnModel::Create(model_config));

  TwoLevelOptions tlo;
  tlo.metis.seed = options.partition_seed;
  HT_ASSIGN_OR_RETURN(
      TwoLevelPartition tl,
      BuildTwoLevelPartition(dataset->graph, options.num_nodes, 1, tlo));
  engine->shares_.resize(options.num_nodes);
  for (int i = 0; i < options.num_nodes; ++i) {
    const Chunk& c = tl.chunks[i][0];
    engine->shares_[i] = {c.num_dst(), c.num_edges(), c.num_neighbors()};
  }

  if (!options.cluster_transport.empty()) {
    // Real multi-process mode: hand the training problem's provenance to a
    // ClusterCoordinator, which forks one worker per partition. Everything
    // the workers need travels through the env contract; the dataset's
    // (name, scale, seed) triple regenerates it bit-for-bit in each process.
    // The coordinator validates the rest (e.g. that dedup groups rows by
    // owner, the RPC wire format).
    if (dataset->name.empty()) {
      return Status::Invalid(
          "cluster_transport needs a registry dataset (name/scale/seed "
          "provenance); ad-hoc datasets cannot be rebuilt in workers");
    }
    net::ClusterConfig cc;
    cc.transport = options.cluster_transport;
    cc.num_workers = options.cluster_workers;
    cc.dataset = dataset->name;
    cc.dataset_scale = dataset->loaded_scale;
    cc.dataset_seed = dataset->load_seed;
    cc.model_kind = model_config.kind;
    cc.model_dims = model_config.dims;
    cc.model_seed = model_config.seed;
    cc.chunks_per_partition = options.chunks_per_partition;
    cc.dedup_level = static_cast<int>(options.dedup);
    cc.reorganize = options.reorganize;
    cc.partition_seed = options.partition_seed;
    cc.wire = options.comm_precision;
    cc.adam = options.adam;
    cc.checkpoint_dir = options.cluster_checkpoint_dir;
    cc.runtime_dir = options.cluster_runtime_dir;
    cc.resume = options.cluster_resume;
    cc.recover_mode = options.cluster_recover_mode;
    cc.kill_rank = options.cluster_kill_rank;
    cc.kill_epoch = options.cluster_kill_epoch;
    cc.fault_rank = options.cluster_fault_rank;
    cc.worker_fault_spec = options.cluster_worker_fault_spec;
    cc.coord_kill_epoch = options.cluster_coord_kill_epoch;
    HT_ASSIGN_OR_RETURN(engine->coordinator_,
                        net::ClusterCoordinator::Start(std::move(cc)));
  }
  return engine;
}

Result<EpochStats> CpuClusterEngine::RunEpoch() {
  if (coordinator_ == nullptr) return EstimateEpoch();
  HT_ASSIGN_OR_RETURN(net::ClusterEpochResult r, coordinator_->RunEpoch());
  EpochStats stats;
  stats.loss = r.loss;
  stats.train_accuracy = r.train_accuracy;
  stats.wall_seconds = r.wall_seconds;
  // Measured wall-clock is the epoch time here — there is no simulated
  // platform in multi-process mode, so SimSeconds() == wall.
  stats.time.cpu = r.wall_seconds;
  stats.recovery = r.recovery;
  return stats;
}

int64_t CpuClusterEngine::MaxNodeBytes() const {
  // Per-node training state: its share of vertex + intermediate data, plus
  // neighbor replicas and matching communication buffers across all layers
  // (DistGNN keeps both, §7.2 "Comparison with distributed-CPU system").
  int64_t sum_dims = 0;
  for (int d : model_.config().dims) sum_dims += d;
  MemoryModelInput mm;
  mm.num_vertices = ds_->graph.num_vertices();
  mm.num_edges = ds_->graph.num_edges();
  for (int d : model_.config().dims) mm.dims.push_back(d);
  mm.kind = model_.config().kind == GnnKind::kGat ? ModelKind::kGat
                                                  : ModelKind::kGcn;
  const MemoryModelOutput out = EvaluateMemoryModel(mm);

  const int64_t nv = ds_->graph.num_vertices();
  const int64_t ne = ds_->graph.num_edges();
  int64_t mx = 0;
  for (const NodeShare& s : shares_) {
    const double v_frac = static_cast<double>(s.vertices) / nv;
    const double e_frac = static_cast<double>(s.edges) / ne;
    const int64_t own =
        static_cast<int64_t>(out.vertex_data_bytes * v_frac) +
        static_cast<int64_t>(out.intermediate_data_bytes *
                             (model_.config().kind == GnnKind::kGat ? e_frac
                                                                    : v_frac)) +
        static_cast<int64_t>(out.topology_bytes * e_frac);
    const int64_t replicas =
        2 * (s.neighbors - s.vertices) * sum_dims * kF32;  // data + buffers
    mx = std::max(mx, own + replicas);
  }
  return mx;
}

Result<double> CpuClusterEngine::EvaluateAccuracy(SplitRole role) {
  if (coordinator_ != nullptr) return coordinator_->Evaluate(role);
  return Status::NotImplemented(
      "CpuClusterEngine is an analytic cost model; it trains no parameters "
      "to evaluate");
}

Result<EpochStats> CpuClusterEngine::EstimateEpoch() const {
  const int64_t need = MaxNodeBytes();
  if (need > options_.node_memory_bytes) {
    return Status::OutOfMemory("CpuClusterEngine: node needs " +
                               std::to_string(need >> 20) + " MB > " +
                               std::to_string(options_.node_memory_bytes >> 20) +
                               " MB");
  }

  // Compute roofline over the full graph, split across nodes.
  LocalGraph lg;
  lg.num_dst = ds_->graph.num_vertices();
  lg.num_src = ds_->graph.num_vertices();
  lg.num_edges = ds_->graph.num_edges();
  double flops = 0, bytes = 0;
  for (int l = 0; l < model_.num_layers(); ++l) {
    double f = 0, b = 0;
    model_.layer(l)->ForwardCost(lg, &f, &b);
    flops += f;
    bytes += b;
    model_.layer(l)->BackwardCost(lg, /*cached=*/false, /*input_grad=*/l > 0,
                                  &f, &b);
    flops += f;
    bytes += b;
  }
  const double eff_nodes =
      std::pow(static_cast<double>(options_.num_nodes),
               options_.scaling_exponent);
  const double compute_secs =
      std::max(flops / (eff_nodes * options_.node_flops),
               bytes / (eff_nodes * options_.node_mem_bw));

  // Network: boundary vertex data in both directions, every layer; the
  // slowest node bounds the epoch.
  double net_secs = 0;
  for (int l = 0; l < model_.num_layers(); ++l) {
    const int64_t dim = model_.config().dims[l];
    int64_t mx_bytes = 0;
    for (const NodeShare& s : shares_) {
      mx_bytes =
          std::max(mx_bytes, 2 * (s.neighbors - s.vertices) * dim * kF32);
    }
    net_secs += static_cast<double>(mx_bytes) / options_.network_bandwidth;
  }

  EpochStats stats;
  stats.time.cpu = compute_secs;
  stats.time.d2d = net_secs;  // network transfer slot
  stats.peak_device_bytes = need;
  return stats;
}

}  // namespace hongtu
