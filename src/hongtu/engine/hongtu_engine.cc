#include "hongtu/engine/hongtu_engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "hongtu/common/logging.h"
#include "hongtu/common/parallel.h"
#include "hongtu/common/pipeline.h"
#include "hongtu/kernels/backend.h"
#include "hongtu/tensor/ops.h"
#include "hongtu/tensor/pool.h"

namespace hongtu {

namespace {

constexpr int64_t kF32 = static_cast<int64_t>(sizeof(float));

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Copies selected host rows into a dense device tensor, crossing the host
/// link at `wire` precision: fp32 is a plain memcpy, a 16-bit wire quantizes
/// each value once in passing (kernels/codec.h). The output is reshaped in
/// place (every row is overwritten), so a pre-sized workspace tensor never
/// reallocates. Fault site `device.h2d`: the copy is idempotent, so a
/// transient failure on this row stream retries in place.
Status GatherRows(const Tensor& host, const std::vector<VertexId>& rows,
                  Tensor* out, kernels::CommPrecision wire,
                  fault::DegradationPolicy* degrade) {
  return fault::RetryTransient(fault::DefaultRetryPolicy(), degrade, "device.h2d", [&] {
    HT_RETURN_IF_ERROR(fault::Poke(fault::Site::kDeviceH2D));
    const int64_t dim = host.cols();
    const kernels::Backend kb = kernels::ActiveBackend();
    out->EnsureShape(static_cast<int64_t>(rows.size()), dim);
    ParallelForChunked(0, static_cast<int64_t>(rows.size()),
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t r = lo; r < hi; ++r) {
                           kernels::QuantizeCopyRows(kb, wire,
                                                     host.row(rows[r]), dim,
                                                     out->row(r));
                         }
                       });
    return Status::OK();
  });
}

/// Writes a dense device tensor back to selected host rows, crossing the
/// host link at `wire` precision (see GatherRows). Idempotent: target rows
/// are plain overwrites, so the same retry contract applies.
Status ScatterRows(const Tensor& dev, const std::vector<VertexId>& rows,
                   Tensor* host, kernels::CommPrecision wire,
                   fault::DegradationPolicy* degrade) {
  return fault::RetryTransient(fault::DefaultRetryPolicy(), degrade, "device.h2d", [&] {
    HT_RETURN_IF_ERROR(fault::Poke(fault::Site::kDeviceH2D));
    const int64_t dim = host->cols();
    const kernels::Backend kb = kernels::ActiveBackend();
    ParallelForChunked(0, static_cast<int64_t>(rows.size()),
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t r = lo; r < hi; ++r) {
                           kernels::QuantizeCopyRows(kb, wire, dev.row(r), dim,
                                                     host->row(rows[r]));
                         }
                       });
    return Status::OK();
  });
}

/// Device scratch reservation with transient-failure retry (the `pool.alloc`
/// fault site fires inside SimDevice::Allocate). A real OutOfMemory result
/// is not transient and propagates immediately to the OOM-fallback logic.
Status AllocateWithRetry(SimDevice* dev, int64_t bytes, const std::string& tag,
                         fault::DegradationPolicy* degrade) {
  return fault::RetryTransient(fault::DefaultRetryPolicy(), degrade, "pool.alloc",
                               [&] { return dev->Allocate(bytes, tag); });
}

/// Per-batch device working set of a forward chunk: per-destination scratch
/// plus, for non-cacheable layers, the regenerated edge state.
int64_t ForwardScratchBytes(const Chunk& chunk, const Layer& layer) {
  return (chunk.num_dst() * (layer.agg_dim() + 2 * layer.out_dim()) +
          (layer.cacheable()
               ? 0
               : chunk.num_edges() * 3 +
                     chunk.num_neighbors() * layer.out_dim())) *
         kF32;
}

/// Per-batch device working set of a backward chunk. Neighbor-data and
/// neighbor-gradient rows live in the executor's merged comm buffers; only
/// per-destination scratch and (for the recompute path) regenerated edge
/// state count here.
int64_t BackwardScratchBytes(const Chunk& chunk, const Layer& layer,
                             bool cached) {
  return (chunk.num_dst() * (layer.agg_dim() + 3 * layer.out_dim()) +
          (cached ? 0
                  : chunk.num_edges() * 3 +
                        2 * chunk.num_neighbors() * layer.out_dim())) *
         kF32;
}

/// Wall time of an in-order 3-stage pipeline with `d` items in flight,
/// given each item's cost on each stage (`item[stage][j]`): a stage starts
/// item j only after the upstream stage finishes it, and item j enters
/// stage 0 only once item j-d has left stage 2.
double InOrderPipelineWall(const std::vector<std::vector<double>>& item,
                           int d) {
  const size_t n = item[0].size();
  double load_fin = 0.0, comp_fin = 0.0, store_fin = 0.0;
  std::vector<double> retired(n, 0.0);
  for (size_t j = 0; j < n; ++j) {
    double start = load_fin;
    if (j >= static_cast<size_t>(d)) start = std::max(start, retired[j - d]);
    load_fin = start + item[0][j];
    comp_fin = std::max(comp_fin, load_fin) + item[1][j];
    store_fin = std::max(store_fin, comp_fin) + item[2][j];
    retired[j] = store_fin;
  }
  return store_fin;
}

}  // namespace

Result<std::unique_ptr<HongTuEngine>> HongTuEngine::Create(
    const Dataset* dataset, ModelConfig model_config, EngineConfig options) {
  std::vector<int> all(static_cast<size_t>(std::max(0, options.num_devices)));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  return Build(dataset, std::move(model_config), std::move(options),
               std::move(all), nullptr);
}

Result<std::unique_ptr<HongTuEngine>> HongTuEngine::CreateHosting(
    const Dataset* dataset, ModelConfig model_config, EngineConfig options,
    int device, const CommFactory& make_comm) {
  if (device < 0 || device >= options.num_devices || !make_comm) {
    return Status::Invalid("HongTuEngine: hosted device " +
                           std::to_string(device) + " out of range, or no "
                           "data movement for it");
  }
  return Build(dataset, std::move(model_config), std::move(options), {device},
               &make_comm);
}

Result<std::unique_ptr<HongTuEngine>> HongTuEngine::Build(
    const Dataset* dataset, ModelConfig model_config, EngineConfig options,
    std::vector<int> hosted, const CommFactory* make_comm) {
  if (dataset == nullptr) {
    return Status::Invalid("HongTuEngine: null dataset");
  }
  if (model_config.dims.empty() ||
      model_config.dims.front() != dataset->feature_dim()) {
    return Status::Invalid("HongTuEngine: model input dim must match dataset "
                           "feature dim");
  }
  if (options.max_inflight < 1) {
    return Status::Invalid("HongTuEngine: max_inflight must be >= 1, got " +
                           std::to_string(options.max_inflight));
  }
  auto engine = std::unique_ptr<HongTuEngine>(new HongTuEngine());
  engine->ds_ = dataset;
  engine->options_ = options;
  engine->hosted_ = std::move(hosted);
  const int hosted_count = static_cast<int>(engine->hosted_.size());
  HT_ASSIGN_OR_RETURN(engine->model_, GnnModel::Create(model_config));
  for (int k = 1; k < hosted_count; ++k) {
    HT_ASSIGN_OR_RETURN(GnnModel replica, GnnModel::Create(model_config));
    engine->replicas_.push_back(std::move(replica));
  }
  engine->device_workers_ =
      std::make_unique<WorkerGroup>(std::max(1, hosted_count));
  engine->adam_ = Adam(options.adam);
  for (Tensor* p : engine->model_.AllParams()) engine->adam_.Register(p);

  // ---- Preprocessing: 2-level partition, reorganization, dedup plan.
  const double t0 = NowSeconds();
  TwoLevelOptions tlo;
  tlo.metis.seed = options.partition_seed;
  HT_ASSIGN_OR_RETURN(
      engine->tl_,
      BuildTwoLevelPartition(dataset->graph, options.num_devices,
                             options.chunks_per_partition, tlo));
  const double t1 = NowSeconds();
  if (options.reorganize && options.dedup != DedupLevel::kNone) {
    HT_RETURN_IF_ERROR(ReorganizePartition(&engine->tl_).status());
  }
  HT_ASSIGN_OR_RETURN(engine->plan_,
                      BuildDedupPlan(engine->tl_, options.dedup));
  const double t2 = NowSeconds();
  engine->partition_seconds_ = t1 - t0;
  engine->dedup_preprocess_seconds_ = t2 - t1;

  engine->platform_ = std::make_unique<SimPlatform>(
      options.num_devices, options.device_capacity_bytes,
      options.interconnect);
  if (make_comm != nullptr) {
    engine->comm_ = (*make_comm)(engine->plan_, &engine->degrade_);
  } else {
    engine->comm_ = std::make_unique<CommExecutor>(
        &engine->tl_, &engine->plan_, engine->platform_.get(),
        &engine->degrade_);
  }

  // ---- Host buffers (Algorithm 1 line 3): h^l for all layers and grad h^l
  // for l >= 1 (layer 0 forms no input gradient, so grad_[0] stays empty),
  // plus AGGREGATE checkpoints for cacheable layers under the hybrid policy.
  const int64_t nv = dataset->graph.num_vertices();
  const int L = engine->model_.num_layers();
  engine->h_.reserve(L + 1);
  engine->grad_.reserve(L + 1);
  for (int l = 0; l <= L; ++l) {
    engine->h_.emplace_back(nv, model_config.dims[l]);
    engine->grad_.emplace_back(l > 0 ? nv : 0, model_config.dims[l]);
  }
  HT_RETURN_IF_ERROR(engine->h_[0].CopyFrom(dataset->features));
  engine->cache_.resize(L);
  engine->use_cache_.resize(L);
  for (int l = 0; l < L; ++l) {
    Layer* layer = engine->model_.layer(l);
    engine->use_cache_[l] = options.hybrid_cache && layer->cacheable();
    if (engine->use_cache_[l]) {
      engine->cache_[l] = Tensor(nv, layer->agg_dim());
    }
  }
  engine->PresizeWorkspaces();
  if (options.edge_schedules) engine->BuildEdgeSchedules();
  return engine;
}

void HongTuEngine::BuildEdgeSchedules() {
  const int m = options_.num_devices;
  const int n = options_.chunks_per_partition;
  kernels::EdgeScheduleParams sp;
  sp.max_dim = 1;
  for (int d : model_.config().dims) sp.max_dim = std::max(sp.max_dim, d);
  scheds_.clear();
  scheds_.resize(static_cast<size_t>(m));
  sched_alloc_.clear();
  for (int i : hosted_) {
    // The schedules live in device memory next to the chunk topology they
    // permute. A device that cannot afford them keeps the single-pass
    // kernels — the schedules are an optimization, never a requirement —
    // and the capacity estimate runs *before* the builds, so an
    // over-capacity device pays nothing. The estimate is exactly 0 when
    // every chunk's random sides fit one band: no schedule could engage,
    // so the device builds, allocates and meters nothing.
    int64_t estimate = 0;
    for (int j = 0; j < n; ++j) {
      estimate += ChunkSchedules::EstimateBytes(tl_.chunks[i][j], sp);
    }
    if (estimate == 0) continue;
    if (platform_ != nullptr) {
      SimDevice& dev = platform_->device(i);
      if (dev.used() + estimate > dev.capacity()) {
        degrade_.RecordSetup(
            fault::DegradeEvent::kScheduleFallback,
            "device " + std::to_string(i) +
                ": edge schedules do not fit, using single-pass kernels");
        continue;
      }
    }
    // Chunks compile independently — per-chunk parallel build keeps the
    // one-time preprocessing off the critical path at larger chunk counts
    // (ChunkSchedules::Build itself also fuses the two directions' counting
    // passes and parallelizes placement over shards).
    std::vector<ChunkSchedules> row(static_cast<size_t>(n));
    ParallelForChunked(0, n, /*serial_below=*/2, [&](int64_t lo, int64_t hi) {
      for (int64_t j = lo; j < hi; ++j) {
        row[static_cast<size_t>(j)] =
            ChunkSchedules::Build(tl_.chunks[i][j], sp);
      }
    });
    int64_t bytes = 0;
    for (int j = 0; j < n; ++j) bytes += row[static_cast<size_t>(j)].bytes();
    if (platform_ != nullptr) {
      // Cannot fail on capacity (bytes <= the estimate already checked
      // above), but an armed pool.alloc fault can still reject it — then
      // the device keeps the single-pass kernels like any other miss.
      if (!AllocateWithRetry(&platform_->device(i), bytes, "edge schedules",
                             &degrade_)
               .ok()) {
        degrade_.RecordSetup(
            fault::DegradeEvent::kScheduleFallback,
            "device " + std::to_string(i) +
                ": edge-schedule allocation rejected, using single-pass "
                "kernels");
        continue;
      }
      sched_alloc_.emplace_back(&platform_->device(i), bytes);
      platform_->AddScheduleBytes(bytes);
    }
    scheds_[static_cast<size_t>(i)] = std::move(row);
  }
}

void HongTuEngine::PresizeWorkspaces() {
  const int m = options_.num_devices;
  const int n = options_.chunks_per_partition;
  const int L = model_.num_layers();
  int64_t max_in = 0, max_out = 0, max_agg = 0, max_grad_in = 0;
  for (int l = 0; l < L; ++l) {
    const Layer* layer = model_.layer(l);
    max_in = std::max<int64_t>(max_in, layer->in_dim());
    max_out = std::max<int64_t>(max_out, layer->out_dim());
    max_agg = std::max<int64_t>(max_agg, layer->agg_dim());
    // Layer 0 forms no input gradient, so its width never sizes d_src.
    if (l > 0) max_grad_in = std::max<int64_t>(max_grad_in, layer->in_dim());
  }
  ws_.resize(static_cast<size_t>(Depth()));
  for (SlotWorkspace& ws : ws_) {
    ws.out.resize(m);
    ws.agg.resize(m);
    ws.d_dst.resize(m);
    ws.dst_rows.resize(m);
    ws.d_src.resize(m);
    for (int i : hosted_) {
      int64_t max_dst = 0, max_nbr = 0;
      for (int j = 0; j < n; ++j) {
        max_dst = std::max(max_dst, tl_.chunks[i][j].num_dst());
        max_nbr = std::max(max_nbr, tl_.chunks[i][j].num_neighbors());
      }
      ws.out[i].EnsureShape(max_dst, max_out);
      ws.agg[i].EnsureShape(max_dst, max_agg);
      ws.d_dst[i].EnsureShape(max_dst, max_out);
      ws.dst_rows[i].EnsureShape(max_dst, max_in);
      ws.d_src[i].EnsureShape(max_nbr, max_grad_in);
    }
  }
}

int HongTuEngine::Depth() const {
  return std::max(1, std::min(options_.max_inflight,
                              options_.chunks_per_partition));
}

Status HongTuEngine::SyncReplicas() {
  const std::vector<Tensor*> src = model_.AllParams();
  for (GnnModel& replica : replicas_) {
    const std::vector<Tensor*> dst = replica.AllParams();
    for (size_t k = 0; k < src.size(); ++k) {
      HT_RETURN_IF_ERROR(dst[k]->CopyFrom(*src[k]));
    }
  }
  return Status::OK();
}

Status HongTuEngine::RunDevices(const std::function<Status(int)>& fn) {
  return device_workers_->Run([this, &fn](int k) -> Status {
    SimPlatform::SetLane(1);
    TensorPool::SetThreadArena(k);
    return fn(hosted_[static_cast<size_t>(k)]);
  });
}

Status HongTuEngine::RunWithSerialFallback(
    const char* direction, int l, const std::function<Status(int)>& layer) {
  const int d = Depth();
  const Status st = layer(d);
  // A replay would zero this device's accumulators and push its gradients a
  // second time, which the other workers' exactly-once guards drop: only an
  // engine that hosts every device can replay a layer on its own.
  if (st.ok() || d == 1 || !HostsAllDevices()) return st;
  // OutOfMemory (the extra in-flight working set did not fit) and transient
  // causes (a recoverable fault that poisoned the pipeline after its own
  // retries) replay the layer at depth 1 — counted as distinct events;
  // anything else is a real error and propagates.
  const std::string what = std::string(direction) + " layer " +
                           std::to_string(l);
  if (st.IsOutOfMemory()) {
    degrade_.Record(fault::DegradeEvent::kPipelineOomFallback,
                    what + ": " + st.message());
  } else if (st.IsTransient()) {
    degrade_.Record(fault::DegradeEvent::kPipelineReplay,
                    what + ": " + st.message());
  } else {
    return st;
  }
  // The replay's own stage items pass the same fault sites, so a transient
  // failure of the replay is retried like any other transient operation.
  return fault::RetryTransient(fault::DefaultRetryPolicy(), &degrade_,
                               what.c_str(), [&] { return layer(1); });
}

Status HongTuEngine::ForwardPass() {
  // The replicas pick up whatever changed model_ since the last pass: the
  // Adam step, a checkpoint restore, or an edit made through model().
  HT_RETURN_IF_ERROR(SyncReplicas());
  const int L = model_.num_layers();
  for (int l = 0; l < L; ++l) {
    // A replay is bitwise-identical: the forward's h^{l+1}/cache writes are
    // idempotent overwrites, and a poisoned pipeline retires every batch (as
    // no-ops past the failure point) before RunPipelinedLayer releases its
    // buffers.
    HT_RETURN_IF_ERROR(RunWithSerialFallback(
        "forward", l, [this, l](int d) { return ForwardLayer(l, d); }));
  }
  return Status::OK();
}

Status HongTuEngine::RunPipelinedLayer(
    int in_dim, int comm_slots, int d,
    const std::function<int64_t(const Chunk&)>& scratch_bytes,
    StagePipeline::StageFn load, StagePipeline::StageFn compute,
    StagePipeline::StageFn store) {
  const int n = options_.chunks_per_partition;
  HT_RETURN_IF_ERROR(comm_->BeginLayer(
      in_dim, comm_slots, options_.comm_precision, options_.wire_integrity));

  // The compute stage must not race other stages for the device allocator,
  // so the whole layer reserves d worst-case chunk working sets up front.
  std::vector<DeviceAllocation> scratch;
  scratch.reserve(hosted_.size());
  for (int i : hosted_) {
    int64_t ws = 0;
    for (int j = 0; j < n; ++j) {
      ws = std::max(ws, scratch_bytes(tl_.chunks[i][j]));
    }
    const Status st = AllocateWithRetry(&platform_->device(i), d * ws,
                                        "pipeline scratch", &degrade_);
    if (!st.ok()) {
      // Release the comm registrations before reporting: the depth-1
      // replay's BeginLayer must see a clean device.
      comm_->EndLayer();
      return st;
    }
    scratch.emplace_back(&platform_->device(i), d * ws);
  }

  // Every stage item ends in a Synchronize() — the barrier Alg. 2 and 3 end
  // with. At depth 1 the batches run strictly one after another, so no
  // overlap region opens and each phase folds straight into the epoch
  // total. Deeper windows meter every item on every lane, and the region is
  // charged the in-order stage recurrence over these per-item costs
  // (InOrderPipelineWall), which honors what the lane totals alone hide:
  // stage dependencies and slot backpressure (batch j's slot, j mod d,
  // frees only once batch j-d retires from the store stage).
  const bool overlap = d > 1;
  if (overlap) platform_->BeginOverlap(3);
  std::vector<std::vector<double>> item(
      3, std::vector<double>(static_cast<size_t>(n), 0.0));
  auto meter = [&](int lane, StagePipeline::StageFn fn) {
    return StagePipeline::StageFn(
        [this, lane, overlap, &item, fn = std::move(fn)](int64_t j) -> Status {
          const double before =
              overlap ? platform_->LaneBusySeconds(lane) : 0.0;
          const Status st = fn(j);
          platform_->Synchronize();
          if (overlap) {
            item[static_cast<size_t>(lane)][static_cast<size_t>(j)] =
                platform_->LaneBusySeconds(lane) - before;
          }
          return st;
        });
  };
  Status st;
  {
    StagePipeline pipe(
        {meter(0, std::move(load)), meter(1, std::move(compute)),
         meter(2, std::move(store))},
        d);
    for (int j = 0; j < n; ++j) {
      if (!pipe.Submit(j).ok()) break;
    }
    st = pipe.Flush();
  }
  if (overlap) platform_->EndOverlap(InOrderPipelineWall(item, d));
  // Always release the layer's comm registrations — a poisoned pipeline
  // must not leak device reservations into the replay's BeginLayer.
  comm_->EndLayer();
  return st;
}

Status HongTuEngine::ForwardLayer(int l, int d) {
  Layer* layer = model_.layer(l);
  const kernels::CommPrecision wire = options_.comm_precision;
  const int64_t eb = kernels::CommElemBytes(wire);

  // Per-device outputs live in the pre-sized slot workspaces; slot j%d is
  // free for reuse once batch j has retired from the store stage (the
  // pipeline depth bound), so the lanes never share a tensor.

  // Stage A: deduplicated communication for batch j (Algorithm 2).
  auto load = [&, l](int64_t j) -> Status {
    SimPlatform::SetLane(0);
    return comm_->ForwardLoadSlot(static_cast<int>(j),
                                  static_cast<int>(j % d), h_[l]);
  };
  // Stage B: GNN kernels for batch j, all devices at once.
  auto compute = [&, l](int64_t j) -> Status {
    SimPlatform::SetLane(1);
    const int s = static_cast<int>(j % d);
    std::vector<Tensor>& nbr = comm_->slot_buffers(s);
    return RunDevices([&](int i) -> Status {
      const Chunk& chunk = tl_.chunks[i][j];
      if (chunk.num_dst() == 0) return Status::OK();
      const LocalGraph lg = LocalGraph::FromChunk(chunk, chunk_schedules(i, static_cast<int>(j)));
      HT_RETURN_IF_ERROR(DeviceLayer(i, l)->Forward(
          lg, nbr[i], &ws_[s].out[i],
          use_cache_[l] ? &ws_[s].agg[i] : nullptr));
      double flops = 0, bytes = 0;
      layer->ForwardCost(lg, &flops, &bytes);
      platform_->AddGpuCompute(i, flops, bytes);
      return Status::OK();
    });
  };
  // Stage C: stream batch j's representations (and AGGREGATE checkpoints)
  // back to the host buffers (Alg. 1 line 9).
  auto store = [&, l](int64_t j) -> Status {
    SimPlatform::SetLane(2);
    const int s = static_cast<int>(j % d);
    for (int i : hosted_) {
      const Chunk& chunk = tl_.chunks[i][j];
      if (chunk.num_dst() == 0) continue;
      HT_RETURN_IF_ERROR(ScatterRows(ws_[s].out[i], chunk.dst_vertices,
                                     &h_[l + 1], wire, &degrade_));
      platform_->AddH2D(i, chunk.num_dst() * layer->out_dim() * eb);
      if (use_cache_[l]) {
        // Cache the AGGREGATE checkpoint in host memory (§4.2).
        HT_RETURN_IF_ERROR(ScatterRows(ws_[s].agg[i], chunk.dst_vertices,
                                       &cache_[l], wire, &degrade_));
        platform_->AddH2D(i, chunk.num_dst() * layer->agg_dim() * eb);
      }
    }
    return Status::OK();
  };

  return RunPipelinedLayer(
      layer->in_dim(), /*comm_slots=*/d, d,
      [layer](const Chunk& c) { return ForwardScratchBytes(c, *layer); },
      std::move(load), std::move(compute), std::move(store));
}

Status HongTuEngine::BackwardPass() {
  const int L = model_.num_layers();
  for (int l = L - 1; l >= 0; --l) {
    HT_RETURN_IF_ERROR(RunWithSerialFallback(
        "backward", l, [this, l](int d) { return BackwardLayer(l, d); }));
  }
  return Status::OK();
}

Status HongTuEngine::BackwardLayer(int l, int d) {
  Layer* layer = model_.layer(l);
  const bool cached = use_cache_[l];
  const bool input_grad = l > 0;
  const kernels::CommPrecision wire = options_.comm_precision;
  const int64_t eb = kernels::CommElemBytes(wire);
  // Every attempt starts from zeroed gradients — grad h^l here, the
  // transition-gradient accumulators in BeginLayer, and layer l's parameter
  // gradients on every device, which only this layer's backward writes — so
  // a replay erases whatever a poisoned attempt accumulated.
  if (input_grad) grad_[l].Zero();
  for (int i : hosted_) DeviceLayer(i, l)->ZeroGrads();

  // Per-(slot, device) gather/gradient buffers come from the pre-sized slot
  // workspaces; the depth bound keeps the three lanes off each other's slot.

  // Stage A: destination gradients + checkpoints (hybrid) or the neighbor
  // reload (recompute, Fig. 4b) for batch j — all host->device traffic
  // (Alg. 1 line 16).
  auto load = [&, l](int64_t j) -> Status {
    SimPlatform::SetLane(0);
    const int s = static_cast<int>(j % d);
    if (!cached) {
      HT_RETURN_IF_ERROR(
          comm_->ForwardLoadSlot(static_cast<int>(j), s, h_[l]));
    }
    for (int i : hosted_) {
      const Chunk& chunk = tl_.chunks[i][j];
      if (chunk.num_dst() == 0) continue;
      HT_RETURN_IF_ERROR(GatherRows(grad_[l + 1], chunk.dst_vertices,
                                    &ws_[s].d_dst[i], wire, &degrade_));
      platform_->AddH2D(i, chunk.num_dst() * layer->out_dim() * eb);
      if (cached) {
        // Hybrid path (Fig. 4c): reload the AGGREGATE checkpoint instead of
        // the neighbors.
        HT_RETURN_IF_ERROR(GatherRows(cache_[l], chunk.dst_vertices,
                                      &ws_[s].agg[i], wire, &degrade_));
        platform_->AddH2D(i, chunk.num_dst() * layer->agg_dim() * eb);
        if (layer->needs_dst_h()) {
          HT_RETURN_IF_ERROR(GatherRows(h_[l], chunk.dst_vertices,
                                        &ws_[s].dst_rows[i], wire, &degrade_));
          platform_->AddH2D(i, chunk.num_dst() * layer->in_dim() * eb);
        } else {
          ws_[s].dst_rows[i].EnsureShape(0, 0);
        }
      }
    }
    return Status::OK();
  };
  // Stage B: backward kernels for batch j, all devices at once, each
  // accumulating into its own replica's parameter gradients. The neighbor
  // slot only exists on the recompute path (the hybrid path never loads
  // neighbors, and its BeginLayer registers a single comm slot).
  auto compute = [&, l](int64_t j) -> Status {
    SimPlatform::SetLane(1);
    const int s = static_cast<int>(j % d);
    std::vector<Tensor>* nbr =
        cached ? nullptr : &comm_->slot_buffers(s);
    return RunDevices([&](int i) -> Status {
      const Chunk& chunk = tl_.chunks[i][j];
      Tensor* ds = input_grad ? &ws_[s].d_src[i] : nullptr;
      if (chunk.num_dst() == 0) {
        if (input_grad) ds->EnsureShape(0, layer->in_dim());
        return Status::OK();
      }
      const LocalGraph lg = LocalGraph::FromChunk(chunk, chunk_schedules(i, static_cast<int>(j)));
      if (input_grad) {
        ds->EnsureShapeZeroed(chunk.num_neighbors(), layer->in_dim());
      }
      Layer* dl = DeviceLayer(i, l);
      if (cached) {
        HT_RETURN_IF_ERROR(dl->BackwardCached(
            lg, ws_[s].agg[i], ws_[s].dst_rows[i], ws_[s].d_dst[i], ds));
      } else {
        HT_RETURN_IF_ERROR(
            dl->BackwardRecompute(lg, (*nbr)[i], ws_[s].d_dst[i], ds));
      }
      double flops = 0, bytes = 0;
      layer->BackwardCost(lg, cached, input_grad, &flops, &bytes);
      platform_->AddGpuCompute(i, flops, bytes);
      return Status::OK();
    });
  };
  // Stage C: deduplicated gradient write-back for batch j (Alg. 1 line 19 /
  // Alg. 3). Runs strictly in batch order, so transition-gradient slot
  // reuse and the host-side accumulation order are the same at every depth.
  // Layer 0 forms no input gradient, so it has nothing to push.
  auto store = [&, l](int64_t j) -> Status {
    SimPlatform::SetLane(2);
    if (!input_grad) return Status::OK();
    return comm_->BackwardAccumulate(
        static_cast<int>(j), ws_[static_cast<size_t>(j % d)].d_src,
        &grad_[l]);
  };

  return RunPipelinedLayer(
      layer->in_dim(), /*comm_slots=*/cached ? 1 : d, d,
      [layer, cached](const Chunk& c) {
        return BackwardScratchBytes(c, *layer, cached);
      },
      std::move(load), std::move(compute), std::move(store));
}

Status HongTuEngine::AllReduceAndStep() {
  // Parameters are replicated across devices and every device accumulated
  // its chunks' gradients into its own replica; the all-reduce (Alg. 1 line
  // 21) is metered as a ring. The sum itself adds replicas 1..m-1 into
  // model_ (device 0's) in device order — the rank order the cluster
  // coordinator reduces in — so the result never depends on which device
  // finished first.
  const int m = options_.num_devices;
  const int64_t param_bytes = model_.ParamBytes();
  for (int i = 0; i < m; ++i) {
    platform_->AddD2D(i, 2 * param_bytes * (m - 1) / std::max(1, m));
  }
  platform_->Synchronize();
  const std::vector<Tensor*> grads = model_.AllGrads();
  for (GnnModel& replica : replicas_) {
    const std::vector<Tensor*> g = replica.AllGrads();
    for (size_t k = 0; k < grads.size(); ++k) ops::AddInPlace(*g[k], grads[k]);
  }
  return adam_.Step(std::vector<const Tensor*>(grads.begin(), grads.end()));
}

Result<EpochStats> HongTuEngine::TrainEpoch() {
  const double w0 = NowSeconds();
  platform_->ResetEpoch();
  platform_->ResetPeaks();
  degrade_.ResetEpoch();

  HT_RETURN_IF_ERROR(ForwardPass());
  HT_ASSIGN_OR_RETURN(const LossResult loss, LossAndBackward());
  HT_RETURN_IF_ERROR(AllReduceAndStep());

  EpochStats stats;
  stats.loss = loss.loss;
  stats.train_accuracy = loss.accuracy;
  stats.time = platform_->time();
  stats.bytes = platform_->bytes();
  stats.peak_device_bytes = platform_->MaxDevicePeak();
  stats.wall_seconds = NowSeconds() - w0;
  stats.host_peak_bytes = platform_->HostPeakBytes();
  stats.host_alloc_count = platform_->HostAllocCount();
  stats.host_pool_hits = platform_->HostPoolHits();
  stats.recovery = degrade_.SnapshotEpoch();
  return stats;
}

Result<LossResult> HongTuEngine::LossAndBackward() {
  // Downstream task (Alg. 1 lines 10-11) on the host.
  const int L = model_.num_layers();
  std::vector<VertexId> train = ds_->VerticesWithRole(SplitRole::kTrain);
  const int64_t all_train = static_cast<int64_t>(train.size());
  if (!HostsAllDevices()) {
    const int lo = hosted_.front(), hi = hosted_.back();
    train.erase(std::remove_if(train.begin(), train.end(),
                               [&](VertexId v) {
                                 const int p = tl_.partition_of[v];
                                 return p < lo || p > hi;
                               }),
                train.end());
  }
  const LossResult loss =
      SoftmaxCrossEntropy(h_[L], ds_->labels, train, &grad_[L], all_train);
  platform_->AddCpuAccum(static_cast<int64_t>(train.size()) *
                         model_.config().dims.back() * kF32);
  platform_->Synchronize();
  HT_RETURN_IF_ERROR(BackwardPass());
  return loss;
}

Result<double> HongTuEngine::EvaluateAccuracy(SplitRole role) {
  HT_RETURN_IF_ERROR(ForwardPass());
  const int L = model_.num_layers();
  return Accuracy(h_[L], ds_->labels, ds_->VerticesWithRole(role));
}

}  // namespace hongtu
