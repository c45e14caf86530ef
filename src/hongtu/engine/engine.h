/// \file engine.h
/// \brief The unified training-engine API: per-epoch statistics, the common
/// options surface, and the abstract `Engine` interface with its factory.
///
/// Four engines reproduce the paper's evaluated systems:
///  - HongTuEngine     (engine/hongtu_engine.h)   — the paper's contribution
///  - InMemoryEngine   (engine/inmemory_engine.h) — DGL / Sancus / HongTu-IM
///  - MiniBatchEngine  (engine/minibatch_engine.h)— DistDGL-style sampling
///  - CpuClusterEngine (engine/cpu_cluster_engine.h) — DistGNN-style CPU
/// All run real float32 numerics on the host; device memory, link traffic
/// and kernel time follow the simulated platform (src/sim).
///
/// They share one entry point: `Engine::Create(kind, dataset, model, config)`
/// returns an `Engine*` whose `RunEpoch()` / `EvaluateAccuracy()` signatures
/// are identical across kinds, and `EngineConfig` is the one flattened
/// options struct (engine-specific knobs are simply ignored by engines they
/// do not apply to). The concrete Create functions remain available for
/// callers that need engine-specific accessors (dedup plans, logits, ...).
///
/// HongTuEngine's pipeline depth lives in `EngineOptions::max_inflight`
/// (common/config.h).

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "hongtu/comm/dedup_plan.h"
#include "hongtu/common/config.h"
#include "hongtu/common/fault.h"
#include "hongtu/gnn/model.h"
#include "hongtu/kernels/codec.h"
#include "hongtu/sim/interconnect.h"
#include "hongtu/tensor/adam.h"

namespace hongtu {

struct Dataset;
enum class SplitRole : uint8_t;

/// Everything a benchmark needs from one training epoch.
struct EpochStats {
  double loss = 0.0;
  double train_accuracy = 0.0;
  TimeBreakdown time;         ///< simulated platform time (Fig. 9 components)
  ByteCounters bytes;         ///< link traffic
  int64_t peak_device_bytes = 0;  ///< max per-device memory watermark
  double wall_seconds = 0.0;  ///< real host wall-clock (diagnostic)

  // ---- Host tensor-pool metering (tensor/pool.h) for this epoch. In steady
  // state (epoch >= 2) a pooled engine's chunk loops perform zero heap
  // allocations, so host_alloc_count drops to 0 while host_pool_hits counts
  // the recycled buffers.
  int64_t host_peak_bytes = 0;   ///< peak live host tensor bytes
  int64_t host_alloc_count = 0;  ///< heap allocations (pool misses)
  int64_t host_pool_hits = 0;    ///< pool free-list hits

  /// Graceful-degradation events this epoch (common/fault.h): retries,
  /// integrity refetches, pipeline->serial replays, OOM/schedule fallbacks.
  /// All zero on a clean epoch; tests assert on these to prove a recovery
  /// path actually fired (and benchmarks report them next to the timings).
  fault::RecoveryCounters recovery;

  /// Critical-path epoch time. The `time` components are per-resource busy
  /// seconds; under the concurrent executors their sum double-counts what
  /// ran concurrently, and total() subtracts that (see TimeBreakdown).
  double SimSeconds() const { return time.total(); }
  /// Busy seconds hidden by comm/compute overlap (0 at max_inflight = 1).
  double OverlapSeconds() const { return time.overlapped; }
};

/// Default of EngineOptions::wire_integrity: on unless
/// HONGTU_WIRE_INTEGRITY=0 (routed through the single parse point in
/// common/config.h).
inline bool DefaultWireIntegrity() {
  return RuntimeConfig::FromEnv().wire_integrity;
}

/// Platform options common to the GPU-based engines. This is a thin view
/// over RuntimeConfig (common/config.h): the runtime-policy fields below
/// default to the environment snapshot taken when the struct is constructed,
/// and explicit assignment always wins (explicit > env > default).
struct EngineOptions {
  int num_devices = 4;
  /// Per-device memory capacity. The default models an A100's 80 GB scaled
  /// by the ~500x dataset scale-down (see DESIGN.md §2).
  int64_t device_capacity_bytes = 160ll << 20;
  InterconnectParams interconnect;
  AdamOptions adam;
  /// Wire precision of vertex-row communication (kernels/codec.h): fp32 =
  /// today's bit-exact transfers; bf16/fp16 halve every wire byte while all
  /// accumulation stays fp32. HongTuEngine runs the full mixed-precision
  /// data path (compressed transition payloads, convert-on-copy fetch,
  /// quantized row streams); InMemoryEngine scales its replica-exchange
  /// traffic model; the sampling engines keep fp32. The default is fp32
  /// unless the HONGTU_COMM_PRECISION environment variable moves it (a CI
  /// hook); explicit assignments always win.
  kernels::CommPrecision comm_precision = kernels::DefaultCommPrecision();
  /// Per-row CRC32C integrity words on every transition payload, verified
  /// at fetch time with repair-by-refetch (comm/executor.h). On by default;
  /// HONGTU_WIRE_INTEGRITY=0 turns it off (explicit assignments win).
  bool wire_integrity = DefaultWireIntegrity();
  /// In-flight chunk batches of HongTuEngine's 3-stage layer pipeline
  /// (other engines ignore it), clamped to the batch count at run time;
  /// 1 runs the batches strictly in order with no overlap. Must be >= 1.
  /// Default 2, moved by HONGTU_MAX_INFLIGHT.
  int max_inflight = RuntimeConfig::FromEnv().max_inflight;
};

/// Which engine Engine::Create builds.
enum class EngineKind { kHongTu, kInMemory, kMiniBatch, kCpuCluster };

const char* EngineKindName(EngineKind k);
/// Parses "hongtu" / "inmemory" / "minibatch" / "cpu-cluster". Returns false
/// (out untouched) on anything else.
bool ParseEngineKind(const std::string& s, EngineKind* out);

/// The flattened options struct of the unified API: every engine-specific
/// knob under one roof, each ignored by the engines it does not apply to.
struct EngineConfig : EngineOptions {
  // ---- HongTuEngine --------------------------------------------------------
  /// Chunks per partition (n). Tunes memory vs. communication (Fig. 10).
  int chunks_per_partition = 8;
  /// Fig. 9 ablation: kNone = Baseline, kP2P, kP2PReuse (full HongTu).
  DedupLevel dedup = DedupLevel::kP2PReuse;
  /// Run Algorithm 4 partition reorganization during preprocessing.
  bool reorganize = true;
  /// Use the recomputation-caching hybrid for cacheable layers (§4.2); when
  /// false every layer recomputes (the pure recomputation ablation).
  bool hybrid_cache = true;
  /// Compile per-(chunk, direction) edge schedules at setup so the
  /// aggregation kernels run the propagation-blocked (cache-banded,
  /// conflict-free-parallel) path. One-time preprocessing cost, metered
  /// against device memory; a device that cannot hold its schedules simply
  /// runs the single-pass kernels. Only a direction whose random side spans
  /// two or more L2 bands is compiled: one that fits a single band could
  /// never take the banded path, so it builds nothing and costs 0 bytes.
  /// False = always single-pass (A/B).
  /// (InMemoryEngine: full-graph schedules, metered against device 0.)
  bool edge_schedules = true;
  uint64_t partition_seed = 7;

  // ---- MiniBatchEngine -----------------------------------------------------
  int fanout = 10;       ///< sampled in-neighbors per vertex per layer (§7.1)
  int batch_size = 1024;
  uint64_t seed = 99;

  // ---- CpuClusterEngine ----------------------------------------------------
  int num_nodes = 16;
  /// 512 GB/node scaled by the ~500x dataset scale-down (DESIGN.md §2).
  int64_t node_memory_bytes = 1ll << 30;
  double network_bandwidth = 20e9 / 8.0;  ///< 20 Gbps, bytes/s
  /// Effective per-node FLOP rate for sparse GNN kernels. CPUs sustain a
  /// small fraction of peak on irregular gather/scatter workloads.
  double node_flops = 60e9;
  double node_mem_bw = 50e9;
  /// Cluster scaling is poor for CPU full-graph training (synchronization,
  /// stragglers, MPI buffering): effective parallelism = nodes^exponent.
  /// Calibrated so 16 nodes give the ~2x aggregate throughput implied by
  /// the paper's DistGNN numbers (distribution buys memory, not speed).
  double scaling_exponent = 0.25;

  // ---- Real multi-process cluster backend (net/cluster.h) ------------------
  /// "" keeps CpuClusterEngine analytic; "tcp" or "uds" makes it spawn one
  /// worker process per partition and train for real over the resilient RPC
  /// transport, with heartbeats, deadlines and crash-recovery resume.
  /// Default follows HONGTU_CLUSTER; explicit assignments win. Binaries
  /// that enable this must call net::MaybeRunClusterWorker() first thing in
  /// main() (workers re-exec the host binary).
  std::string cluster_transport = RuntimeConfig::FromEnv().cluster_transport;
  int cluster_workers = 4;  ///< worker processes (= partitions m)
  /// Checkpoint directory for the coordinator's epoch snapshots; empty =
  /// the run's scratch directory (removed on shutdown).
  std::string cluster_checkpoint_dir;
  /// Mid-epoch worker-death recovery rung: "step" (replay just the dead
  /// rank in-epoch, the default), "adopt" (a survivor hosts the dead
  /// partition for the rest of the epoch), or "epoch" (abort, restore the
  /// checkpoint, rerun — the coarsest ladder, and the fallback for the
  /// finer rungs).
  std::string cluster_recover_mode = "step";
  /// Stable directory for the coordinator's control sockets; empty = a
  /// fresh scratch directory. Must be set (with cluster_checkpoint_dir)
  /// for cluster_resume to find the previous incarnation's state.
  std::string cluster_runtime_dir;
  /// Resume a crashed coordinator: replay the cluster journal, re-attach
  /// surviving workers under a bumped term, adopt the in-flight epoch.
  bool cluster_resume = false;
  // Failure drills (CI smoke hooks; see net/cluster.h ClusterConfig).
  int cluster_kill_rank = -1;
  int64_t cluster_kill_epoch = -1;
  int cluster_fault_rank = -1;
  std::string cluster_worker_fault_spec;
  /// Coordinator self-SIGKILL after epoch N's reports are journaled but
  /// before the ack (the coordinator_kill_smoke drill). -1 = off.
  int64_t cluster_coord_kill_epoch = -1;

  /// This config as a RuntimeConfig view (engine-scoped fields from this
  /// config; the process-scoped knobs — kernel backend, pool, fault spec —
  /// from RuntimeConfig::Process()). For Describe() dumps.
  RuntimeConfig runtime() const;
};

/// The abstract engine: identical RunEpoch/EvaluateAccuracy across all four
/// kinds. Accessors that not every engine supports (platform, model, adam,
/// degradation) default to nullptr.
class Engine {
 public:
  virtual ~Engine();

  /// One training epoch (forward + backward + update). CpuClusterEngine,
  /// an analytic model, returns its per-epoch estimate.
  virtual Result<EpochStats> RunEpoch() = 0;
  /// Forward-only accuracy over a split. NotImplemented on engines without
  /// trained parameters (CpuClusterEngine).
  virtual Result<double> EvaluateAccuracy(SplitRole role) = 0;

  virtual const char* name() const = 0;
  virtual SimPlatform* platform() { return nullptr; }
  virtual GnnModel* model() { return nullptr; }
  /// Optimizer state for checkpointing (engine/checkpoint.h).
  virtual Adam* adam() { return nullptr; }
  virtual fault::DegradationPolicy* degradation() { return nullptr; }

  /// The unified factory: builds the requested engine kind over `dataset`
  /// (which must outlive the engine).
  static Result<std::unique_ptr<Engine>> Create(EngineKind kind,
                                                const Dataset* dataset,
                                                ModelConfig model_config,
                                                const EngineConfig& config);
};

}  // namespace hongtu
