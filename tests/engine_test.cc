// Engine tests. The centerpiece is the equivalence suite: HongTuEngine
// (partitioned, offloaded, deduplicated, recompute/cache-hybrid) must match
// the dense single-shot InMemoryEngine reference to float tolerance — the
// paper's claim that its training semantics are unchanged (§7.1, Fig. 8).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

#include "hongtu/common/parallel.h"
#include "hongtu/engine/cpu_cluster_engine.h"
#include "hongtu/engine/hongtu_engine.h"
#include "hongtu/engine/inmemory_engine.h"
#include "hongtu/engine/minibatch_engine.h"
#include "hongtu/engine/trainer.h"

namespace hongtu {
namespace {

constexpr int64_t kBig = 1ll << 40;

Dataset SmallDataset(const char* name = "reddit", double scale = 0.2) {
  auto r = LoadDatasetScaled(name, scale);
  EXPECT_TRUE(r.ok());
  return r.MoveValueUnsafe();
}

class EquivalenceTest
    : public ::testing::TestWithParam<std::tuple<GnnKind, DedupLevel, int>> {};

TEST_P(EquivalenceTest, HongTuMatchesDenseReference) {
  const auto& [kind, level, chunks] = GetParam();
  Dataset ds = SmallDataset();
  ModelConfig cfg =
      ModelConfig::Make(kind, ds.feature_dim(), 16, ds.num_classes, 2, 777);

  EngineConfig imo;
  imo.num_devices = 1;
  imo.device_capacity_bytes = kBig;
  auto refr = InMemoryEngine::Create(&ds, cfg, imo);
  ASSERT_TRUE(refr.ok()) << refr.status().ToString();
  auto& ref = *refr.ValueOrDie();

  EngineConfig hto;
  hto.num_devices = 4;
  hto.device_capacity_bytes = kBig;
  hto.chunks_per_partition = chunks;
  hto.dedup = level;
  // This suite asserts the paper's unchanged-training-semantics claim, so
  // it pins the bit-exact wire even when HONGTU_COMM_PRECISION moves the
  // default (the CI bf16 leg); Bf16TrainingDrift below bounds the 16-bit
  // wire against fp32 explicitly.
  hto.comm_precision = kernels::CommPrecision::kFp32;
  auto htr = HongTuEngine::Create(&ds, cfg, hto);
  ASSERT_TRUE(htr.ok()) << htr.status().ToString();
  auto& ht = *htr.ValueOrDie();

  for (int epoch = 0; epoch < 3; ++epoch) {
    auto a = ref.TrainEpoch();
    auto b = ht.TrainEpoch();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_NEAR(a.ValueOrDie().loss, b.ValueOrDie().loss,
                2e-3 * std::max(1.0, a.ValueOrDie().loss))
        << "epoch " << epoch;
  }
  // Parameters stay in lockstep as well.
  auto pa = ref.model()->AllParams();
  auto pb = ht.model()->AllParams();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_LT(Tensor::MaxAbsDiff(*pa[i], *pb[i]), 5e-2) << "param " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsLevelsChunks, EquivalenceTest,
    ::testing::Combine(::testing::Values(GnnKind::kGcn, GnnKind::kSage,
                                         GnnKind::kGin, GnnKind::kGat,
                                         GnnKind::kGgnn),
                       ::testing::Values(DedupLevel::kNone,
                                         DedupLevel::kP2PReuse),
                       ::testing::Values(1, 3)));

class Bf16DriftTest
    : public ::testing::TestWithParam<std::tuple<GnnKind, DedupLevel>> {};

TEST_P(Bf16DriftTest, TrainingLossStaysWithinTolerance) {
  // The mixed-precision wire quantizes every transferred row once per
  // crossing while all accumulation stays fp32, so end-to-end training-loss
  // drift vs the fp32 wire must stay within a few percent — for every layer
  // kind and dedup level (each level routes rows through different
  // load/reuse/flush paths).
  const auto& [kind, level] = GetParam();
  Dataset ds = SmallDataset();
  ModelConfig cfg =
      ModelConfig::Make(kind, ds.feature_dim(), 16, ds.num_classes, 2, 555);
  const auto run = [&](kernels::CommPrecision wire) {
    EngineConfig o;
    o.num_devices = 4;
    o.chunks_per_partition = 3;
    o.device_capacity_bytes = kBig;
    o.dedup = level;
    o.comm_precision = wire;
    auto e = HongTuEngine::Create(&ds, cfg, o);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    std::vector<double> losses;
    for (int epoch = 0; epoch < 3; ++epoch) {
      auto r = e.ValueOrDie()->TrainEpoch();
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      losses.push_back(r.ValueOrDie().loss);
    }
    return losses;
  };
  const std::vector<double> fp32 = run(kernels::CommPrecision::kFp32);
  const std::vector<double> bf16 = run(kernels::CommPrecision::kBf16);
  ASSERT_EQ(fp32.size(), bf16.size());
  for (size_t e = 0; e < fp32.size(); ++e) {
    EXPECT_NEAR(bf16[e], fp32[e], 0.05 * std::max(1.0, fp32[e]))
        << GnnKindName(kind) << " epoch " << e;
  }
  // Training still makes progress under the compressed wire.
  EXPECT_LT(bf16.back(), bf16.front());
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndLevels, Bf16DriftTest,
    ::testing::Combine(::testing::Values(GnnKind::kGcn, GnnKind::kSage,
                                         GnnKind::kGin, GnnKind::kGat,
                                         GnnKind::kGgnn),
                       ::testing::Values(DedupLevel::kNone, DedupLevel::kP2P,
                                         DedupLevel::kP2PReuse)));

TEST(HongTuEngine, Fp16WireTrainsAndHalvesCommBytes) {
  // fp16's narrower range must still train on normalized features, and the
  // platform's byte meters must show the halved wire for both precisions.
  Dataset ds = SmallDataset();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 556);
  const auto run = [&](kernels::CommPrecision wire) {
    EngineConfig o;
    o.num_devices = 4;
    o.chunks_per_partition = 3;
    o.device_capacity_bytes = kBig;
    o.comm_precision = wire;
    // One batch in flight: epoch time is the sum of busy seconds, so the
    // halved wire must show up as a strict total-time drop (under overlap
    // a fully hidden comm lane could mask it).
    o.max_inflight = 1;
    auto e = HongTuEngine::Create(&ds, cfg, o);
    EXPECT_TRUE(e.ok());
    auto r = e.ValueOrDie()->TrainEpoch();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ValueOrDie();
  };
  const EpochStats f32 = run(kernels::CommPrecision::kFp32);
  const EpochStats f16 = run(kernels::CommPrecision::kFp16);
  const EpochStats b16 = run(kernels::CommPrecision::kBf16);
  EXPECT_NEAR(f16.loss, f32.loss, 0.05 * std::max(1.0, f32.loss));
  // Every comm stream moves vertex rows at the 2-byte wire: the h2d + ru
  // byte meters must drop by exactly 2x, and d2d likewise.
  EXPECT_EQ(f16.bytes.h2d * 2, f32.bytes.h2d);
  EXPECT_EQ(f16.bytes.ru * 2, f32.bytes.ru);
  EXPECT_EQ(f16.bytes.d2d, b16.bytes.d2d);
  EXPECT_GT(f32.bytes.d2d, f16.bytes.d2d);
  // Cheaper wire bytes must show up as sim-time savings on the h2d lane.
  EXPECT_LT(f16.SimSeconds(), f32.SimSeconds());
}

TEST(HongTuEngine, HybridCacheOffMatchesOn) {
  // Pure recomputation (Fig. 4b) and the hybrid (Fig. 4c) must agree. On a
  // heavily-replicated graph (alpha >> 2) the hybrid also transfers less:
  // caching costs 2|V| rows of host traffic (write + read) versus the
  // recompute path's alpha|V| neighbor reload (§4.2).
  Dataset ds = SmallDataset("friendster", 0.1);
  ModelConfig cfg =
      ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16, ds.num_classes,
                        2, 31);
  EngineConfig a;
  a.num_devices = 4;
  a.chunks_per_partition = 8;
  a.device_capacity_bytes = kBig;
  a.hybrid_cache = true;
  EngineConfig b = a;
  b.hybrid_cache = false;
  auto ea = HongTuEngine::Create(&ds, cfg, a);
  auto eb = HongTuEngine::Create(&ds, cfg, b);
  ASSERT_TRUE(ea.ok() && eb.ok());
  for (int epoch = 0; epoch < 2; ++epoch) {
    auto ra = ea.ValueOrDie()->TrainEpoch();
    auto rb = eb.ValueOrDie()->TrainEpoch();
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_NEAR(ra.ValueOrDie().loss, rb.ValueOrDie().loss, 1e-3);
  }
  // The O(alpha|V|) -> O(|V|) traffic claim of §4.2 is stated against plain
  // per-chunk loading, so compare the two policies with dedup disabled:
  // caching (2|V| rows) must beat the recompute reload (alpha|V| rows).
  EngineConfig a2 = a;
  a2.dedup = DedupLevel::kNone;
  EngineConfig b2 = b;
  b2.dedup = DedupLevel::kNone;
  auto ea2 = HongTuEngine::Create(&ds, cfg, a2);
  auto eb2 = HongTuEngine::Create(&ds, cfg, b2);
  ASSERT_TRUE(ea2.ok() && eb2.ok());
  auto ra = ea2.ValueOrDie()->TrainEpoch();
  auto rb = eb2.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_LT(ra.ValueOrDie().bytes.h2d, rb.ValueOrDie().bytes.h2d);
}

TEST(HongTuEngine, LayerZeroPushesNoGradient) {
  // Layer 0's input gradient would be the gradient of the input features,
  // which nothing reads: its backward forms parameter gradients only and
  // pushes nothing through the Alg. 3 gradient path. A one-layer GCN under
  // the hybrid cache also reloads no neighbors in backward, so a training
  // epoch's D2D traffic is exactly its forward pass's plus the ring
  // all-reduce of the parameter gradients.
  Dataset ds = SmallDataset();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, /*layers=*/1, 41);
  for (const int depth : {1, 2}) {
    EngineConfig o;
    o.num_devices = 4;
    o.chunks_per_partition = 3;
    o.device_capacity_bytes = kBig;
    o.hybrid_cache = true;
    o.max_inflight = depth;
    auto er = HongTuEngine::Create(&ds, cfg, o);
    ASSERT_TRUE(er.ok()) << er.status().ToString();
    HongTuEngine& e = *er.ValueOrDie();
    SimPlatform* platform = e.platform();
    platform->ResetEpoch();
    ASSERT_TRUE(e.EvaluateAccuracy(SplitRole::kVal).ok());
    const int64_t forward_d2d = platform->bytes().d2d;
    ASSERT_GT(forward_d2d, 0);
    auto r = e.TrainEpoch();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const int m = o.num_devices;
    const int64_t allreduce =
        m * (2 * e.model()->ParamBytes() * (m - 1) / m);
    EXPECT_EQ(r.ValueOrDie().bytes.d2d, forward_d2d + allreduce)
        << "max_inflight " << depth;
  }
}

/// Band sizing as the engines resolve it: the widest layer width against
/// the detected L2.
kernels::EdgeScheduleParams EngineScheduleParams(const ModelConfig& cfg) {
  kernels::EdgeScheduleParams sp;
  sp.max_dim = *std::max_element(cfg.dims.begin(), cfg.dims.end());
  return sp;
}

/// The schedule bytes chunk `c` may cost: the built bytes of each direction
/// whose random side spans two or more bands. A single-band direction can
/// never engage, so it must build nothing.
int64_t MultiBandScheduleBytes(const Chunk& c,
                               const kernels::EdgeScheduleParams& sp) {
  const ChunkSchedules s = ChunkSchedules::Build(c, sp);
  int64_t bytes = 0;
  if (kernels::EdgeSchedule::NumBands(c.num_neighbors(), sp) >= 2) {
    bytes += s.gather.bytes();
  } else {
    EXPECT_EQ(s.gather.bytes(), 0);
  }
  if (kernels::EdgeSchedule::NumBands(c.num_dst(), sp) >= 2) {
    bytes += s.scatter.bytes();
  } else {
    EXPECT_EQ(s.scatter.bytes(), 0);
  }
  return bytes;
}

TEST(HongTuEngine, EdgeSchedulesAreMeteredAndOptional) {
  // Small chunks, which fit one band on common hosts, and two large ones,
  // whose random sides span several bands unless L2 exceeds ~3 MiB.
  struct Config {
    double scale;
    int devices;
    int chunks;
  };
  for (const Config& k : {Config{0.1, 2, 4}, Config{0.3, 1, 2}}) {
    Dataset ds = SmallDataset("friendster", k.scale);
    ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                        ds.num_classes, 2, 31);
    EngineConfig on;
    on.num_devices = k.devices;
    on.chunks_per_partition = k.chunks;
    on.device_capacity_bytes = kBig;
    EngineConfig off = on;
    off.edge_schedules = false;
    auto eon = HongTuEngine::Create(&ds, cfg, on);
    auto eoff = HongTuEngine::Create(&ds, cfg, off);
    ASSERT_TRUE(eon.ok() && eoff.ok());
    // The one-time schedule build cost is metered in the platform and
    // charged against device memory: exactly the bytes of the
    // chunk-directions that span two or more bands on this host. Disabling
    // schedules meters nothing.
    const kernels::EdgeScheduleParams sp = EngineScheduleParams(cfg);
    int64_t expected = 0;
    for (const auto& row : eon.ValueOrDie()->partition().chunks) {
      for (const Chunk& c : row) expected += MultiBandScheduleBytes(c, sp);
    }
    EXPECT_EQ(eon.ValueOrDie()->platform()->ScheduleBytes(), expected)
        << "scale " << k.scale;
    EXPECT_EQ(eoff.ValueOrDie()->platform()->ScheduleBytes(), 0);
    // Numerics agree across the banded/single-pass dispatch.
    for (int epoch = 0; epoch < 2; ++epoch) {
      auto ra = eon.ValueOrDie()->TrainEpoch();
      auto rb = eoff.ValueOrDie()->TrainEpoch();
      ASSERT_TRUE(ra.ok() && rb.ok());
      EXPECT_NEAR(ra.ValueOrDie().loss, rb.ValueOrDie().loss, 1e-3);
    }
  }
}

TEST(InMemoryEngine, EdgeSchedulesMeterOnlyMultiBandDirections) {
  // The full graph as one chunk: the same exact expectation as the
  // partitioned engine's, on a random side of every vertex.
  Dataset ds = SmallDataset("friendster", 0.1);
  ModelConfig cfg =
      ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16, ds.num_classes,
                        2, 31);
  EngineConfig o;
  o.num_devices = 1;
  o.device_capacity_bytes = kBig;
  auto e = InMemoryEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  std::vector<VertexId> all(static_cast<size_t>(ds.graph.num_vertices()));
  for (size_t v = 0; v < all.size(); ++v) all[v] = static_cast<VertexId>(v);
  const Chunk full = ExtractChunk(ds.graph, std::move(all), 0, 0);
  EXPECT_EQ(e.ValueOrDie()->platform()->ScheduleBytes(),
            MultiBandScheduleBytes(full, EngineScheduleParams(cfg)));
}

TEST(HongTuEngine, SingleBandSchedulesLeaveWeightsBitwiseUnchanged) {
  // Every chunk side here is at most 256 rows, the band floor, so on any
  // host each direction fits one band and no schedule can engage: turning
  // edge_schedules on must build nothing and change no bit of the weights.
  Dataset ds = SmallDataset("reddit", 0.05);
  for (const GnnKind kind : {GnnKind::kGcn, GnnKind::kGat, GnnKind::kSage}) {
    ModelConfig cfg = ModelConfig::Make(kind, ds.feature_dim(), 16,
                                        ds.num_classes, 2, 53);
    const kernels::EdgeScheduleParams sp = EngineScheduleParams(cfg);
    std::vector<float> weights[2];
    for (const bool schedules : {false, true}) {
      EngineConfig o;
      o.num_devices = 2;
      o.chunks_per_partition = 8;
      o.device_capacity_bytes = kBig;
      o.edge_schedules = schedules;
      auto e = HongTuEngine::Create(&ds, cfg, o);
      ASSERT_TRUE(e.ok()) << e.status().ToString();
      for (const auto& row : e.ValueOrDie()->partition().chunks) {
        for (const Chunk& c : row) {
          ASSERT_EQ(kernels::EdgeSchedule::NumBands(c.num_neighbors(), sp), 1);
          ASSERT_EQ(kernels::EdgeSchedule::NumBands(c.num_dst(), sp), 1);
        }
      }
      EXPECT_EQ(e.ValueOrDie()->platform()->ScheduleBytes(), 0);
      for (int epoch = 0; epoch < 2; ++epoch) {
        auto r = e.ValueOrDie()->TrainEpoch();
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
      for (const Tensor* p : e.ValueOrDie()->model()->AllParams()) {
        weights[schedules].insert(weights[schedules].end(), p->data(),
                                  p->data() + p->size());
      }
    }
    ASSERT_EQ(weights[0].size(), weights[1].size());
    EXPECT_EQ(std::memcmp(weights[0].data(), weights[1].data(),
                          weights[0].size() * sizeof(float)),
              0)
        << GnnKindName(kind);
  }
}

TEST(HongTuEngine, WeightsAreBitwiseIdenticalAtEveryThreadCount) {
  // Engine set-up builds the edge schedules inside a parallel region, and
  // every kernel sums each output in a fixed order whatever the thread
  // split. So the weights after two epochs must not depend on the thread
  // count in a single bit.
  Dataset ds = SmallDataset("friendster", 0.1);
  const int saved = NumThreads();
  for (const GnnKind kind : {GnnKind::kGcn, GnnKind::kGat, GnnKind::kSage}) {
    ModelConfig cfg = ModelConfig::Make(kind, ds.feature_dim(), 16,
                                        ds.num_classes, 2, 91);
    std::vector<float> serial;
    for (int threads = 1; threads <= 8; ++threads) {
      SetNumThreads(threads);
      EngineConfig o;
      o.num_devices = 2;
      o.chunks_per_partition = 3;
      o.device_capacity_bytes = kBig;
      ASSERT_TRUE(o.edge_schedules);
      auto e = HongTuEngine::Create(&ds, cfg, o);
      ASSERT_TRUE(e.ok()) << e.status().ToString();
      for (int epoch = 0; epoch < 2; ++epoch) {
        auto r = e.ValueOrDie()->TrainEpoch();
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
      std::vector<float> weights;
      for (const Tensor* p : e.ValueOrDie()->model()->AllParams()) {
        weights.insert(weights.end(), p->data(), p->data() + p->size());
      }
      if (threads == 1) {
        serial = std::move(weights);
        continue;
      }
      ASSERT_EQ(weights.size(), serial.size());
      EXPECT_EQ(std::memcmp(weights.data(), serial.data(),
                            weights.size() * sizeof(float)),
                0)
          << GnnKindName(kind) << " at " << threads << " threads";
    }
  }
  SetNumThreads(saved);
}

TEST(HongTuEngine, ReorganizeKeepsNumericsChangesVolume) {
  Dataset ds = SmallDataset("friendster", 0.1);
  ModelConfig cfg =
      ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 8, ds.num_classes,
                        2, 13);
  EngineConfig a;
  a.num_devices = 4;
  a.chunks_per_partition = 6;
  a.device_capacity_bytes = kBig;
  a.reorganize = true;
  EngineConfig b = a;
  b.reorganize = false;
  auto ea = HongTuEngine::Create(&ds, cfg, a);
  auto eb = HongTuEngine::Create(&ds, cfg, b);
  ASSERT_TRUE(ea.ok() && eb.ok());
  auto ra = ea.ValueOrDie()->TrainEpoch();
  auto rb = eb.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_NEAR(ra.ValueOrDie().loss, rb.ValueOrDie().loss, 1e-3);
  EXPECT_LE(ea.ValueOrDie()->plan().volumes.v_ru,
            eb.ValueOrDie()->plan().volumes.v_ru);
}

TEST(HongTuEngine, DedupLevelsReduceHostTraffic) {
  // Fig. 9 ablation direction: Baseline > +P2P > +RU in H2D bytes.
  Dataset ds = SmallDataset("friendster", 0.1);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 8,
                                      ds.num_classes, 2, 13);
  int64_t prev = INT64_MAX;
  for (DedupLevel level :
       {DedupLevel::kNone, DedupLevel::kP2P, DedupLevel::kP2PReuse}) {
    EngineConfig o;
    o.num_devices = 4;
    o.chunks_per_partition = 6;
    o.device_capacity_bytes = kBig;
    o.dedup = level;
    auto e = HongTuEngine::Create(&ds, cfg, o);
    ASSERT_TRUE(e.ok());
    auto r = e.ValueOrDie()->TrainEpoch();
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r.ValueOrDie().bytes.h2d, prev)
        << DedupLevelName(level);
    prev = r.ValueOrDie().bytes.h2d;
  }
}

TEST(HongTuEngine, RejectsDimMismatch) {
  Dataset ds = SmallDataset();
  ModelConfig cfg =
      ModelConfig::Make(GnnKind::kGcn, ds.feature_dim() + 1, 8,
                        ds.num_classes, 2, 1);
  EngineConfig o;
  EXPECT_TRUE(HongTuEngine::Create(&ds, cfg, o).status().IsInvalid());
  EXPECT_TRUE(
      HongTuEngine::Create(nullptr, cfg, o).status().IsInvalid());
}

TEST(HongTuEngine, MaxInflightOneIsInOrderAndZeroIsInvalid) {
  Dataset ds = SmallDataset();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 8,
                                      ds.num_classes, 2, 1);
  EngineConfig o;
  o.num_devices = 2;
  o.chunks_per_partition = 3;
  o.device_capacity_bytes = kBig;
  for (const int bad : {0, -1}) {
    o.max_inflight = bad;
    EXPECT_TRUE(HongTuEngine::Create(&ds, cfg, o).status().IsInvalid())
        << bad;
  }
  // One batch in flight opens no overlap region: nothing is hidden, not
  // even floating-point residue.
  o.max_inflight = 1;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  auto r = e.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().time.overlapped, 0.0);
  EXPECT_EQ(r.ValueOrDie().SimSeconds(), r.ValueOrDie().time.busy());
}

TEST(HongTuEngine, SingleDeviceSingleChunkWorks) {
  Dataset ds = SmallDataset();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 8,
                                      ds.num_classes, 2, 1);
  EngineConfig o;
  o.num_devices = 1;
  o.chunks_per_partition = 1;
  o.device_capacity_bytes = kBig;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e.ValueOrDie()->TrainEpoch().ok());
}

TEST(InMemoryEngine, OomOnTinyDevices) {
  Dataset ds = SmallDataset("it-2004", 0.2);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 32,
                                      ds.num_classes, 3, 1);
  EngineConfig o;
  o.num_devices = 4;
  o.device_capacity_bytes = 1 << 20;  // 1 MB devices
  auto e = InMemoryEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e.ValueOrDie()->TrainEpoch().status().IsOutOfMemory());
}

TEST(HongTuEngine, FitsWhereInMemoryOoms) {
  // The paper's central claim (Table 6): with the same devices, HongTu
  // completes where the all-in-GPU engine runs out of memory.
  Dataset ds = SmallDataset("it-2004", 0.2);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 32,
                                      ds.num_classes, 3, 1);
  const int64_t cap = 6ll << 20;  // 6 MB per device
  EngineConfig imo;
  imo.num_devices = 4;
  imo.device_capacity_bytes = cap;
  auto im = InMemoryEngine::Create(&ds, cfg, imo);
  ASSERT_TRUE(im.ok());
  ASSERT_TRUE(im.ValueOrDie()->TrainEpoch().status().IsOutOfMemory());

  EngineConfig hto;
  hto.num_devices = 4;
  hto.device_capacity_bytes = cap;
  hto.chunks_per_partition = 16;
  auto ht = HongTuEngine::Create(&ds, cfg, hto);
  ASSERT_TRUE(ht.ok());
  auto r = ht.ValueOrDie()->TrainEpoch();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(MiniBatchEngine, TrainsAndImprovesLoss) {
  Dataset ds = SmallDataset();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 5);
  EngineConfig o;
  o.num_devices = 4;
  o.device_capacity_bytes = kBig;
  o.batch_size = 256;
  auto e = MiniBatchEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  auto first = e.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(first.ok());
  EpochStats last;
  for (int i = 0; i < 5; ++i) {
    auto r = e.ValueOrDie()->TrainEpoch();
    ASSERT_TRUE(r.ok());
    last = r.ValueOrDie();
  }
  EXPECT_LT(last.loss, first.ValueOrDie().loss);
  auto acc = e.ValueOrDie()->EvaluateAccuracy(SplitRole::kVal);
  ASSERT_TRUE(acc.ok());
  EXPECT_GT(acc.ValueOrDie(), 1.5 / ds.num_classes);
}

TEST(MiniBatchEngine, SampleChunkRespectsFanout) {
  Dataset ds = SmallDataset();
  Rng rng(3);
  std::vector<VertexId> dsts = {0, 5, 9, 14};
  Chunk c = SampleChunk(ds.graph, dsts, 4, &rng);
  ASSERT_EQ(c.num_dst(), 4);
  for (size_t d = 0; d < 4; ++d) {
    EXPECT_LE(c.in_offsets[d + 1] - c.in_offsets[d], 4);
    // Self edge always kept.
    bool self = false;
    for (int64_t e = c.in_offsets[d]; e < c.in_offsets[d + 1]; ++e) {
      if (c.neighbors[c.nbr_idx[e]] == c.dst_vertices[d]) self = true;
    }
    EXPECT_TRUE(self);
  }
}

TEST(CpuClusterEngine, ScalesWithLayersAndOoms) {
  Dataset ds = SmallDataset("ogbn-paper", 0.3);
  EngineConfig o;
  o.num_nodes = 16;
  o.node_memory_bytes = 1ll << 30;
  double prev = 0.0;
  for (int layers : {2, 3, 4}) {
    ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                        ds.num_classes, layers, 1);
    auto e = CpuClusterEngine::Create(&ds, cfg, o);
    ASSERT_TRUE(e.ok());
    auto r = e.ValueOrDie()->EstimateEpoch();
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r.ValueOrDie().SimSeconds(), prev);
    prev = r.ValueOrDie().SimSeconds();
  }
  // Tiny node memory -> OOM.
  o.node_memory_bytes = 1 << 20;
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGat, ds.feature_dim(), 16,
                                      ds.num_classes, 4, 1);
  auto e = CpuClusterEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e.ValueOrDie()->EstimateEpoch().status().IsOutOfMemory());
}

TEST(CpuClusterEngine, MoreNodesAreFaster) {
  Dataset ds = SmallDataset("it-2004", 0.3);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 1);
  EngineConfig a;
  a.num_nodes = 4;
  EngineConfig b;
  b.num_nodes = 16;
  auto ea = CpuClusterEngine::Create(&ds, cfg, a);
  auto eb = CpuClusterEngine::Create(&ds, cfg, b);
  ASSERT_TRUE(ea.ok() && eb.ok());
  auto ra = ea.ValueOrDie()->EstimateEpoch();
  auto rb = eb.ValueOrDie()->EstimateEpoch();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_GT(ra.ValueOrDie().time.cpu, rb.ValueOrDie().time.cpu);
}

TEST(Trainer, ReachesTargetAndStops) {
  Dataset ds = SmallDataset("reddit", 0.2);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 32,
                                      ds.num_classes, 2, 7);
  EngineConfig o;
  o.num_devices = 2;
  o.chunks_per_partition = 2;
  o.device_capacity_bytes = kBig;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  TrainerOptions to;
  to.max_epochs = 100;
  to.target_val_accuracy = 0.8;  // SBM labels are easily learnable
  to.eval_every = 5;
  auto r = TrainToConvergence(e.ValueOrDie().get(), to);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().reached_target);
  EXPECT_LT(r.ValueOrDie().epochs_run, 100);
  EXPECT_GE(r.ValueOrDie().best_val_accuracy, 0.8);
  EXPECT_GT(r.ValueOrDie().total_sim_seconds, 0);
  EXPECT_GT(r.ValueOrDie().MeanEpochSimSeconds(), 0);
}

TEST(Trainer, PatienceStopsOnPlateau) {
  Dataset ds = SmallDataset("it-2004", 0.05);  // random labels: no progress
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 8,
                                      ds.num_classes, 2, 7);
  EngineConfig o;
  o.num_devices = 2;
  o.chunks_per_partition = 2;
  o.device_capacity_bytes = kBig;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  TrainerOptions to;
  to.max_epochs = 200;
  to.patience = 2;
  to.eval_every = 2;
  auto r = TrainToConvergence(e.ValueOrDie().get(), to);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().early_stopped);
  EXPECT_LT(r.ValueOrDie().epochs_run, 200);
}

TEST(Trainer, RejectsBadOptions) {
  Dataset ds = SmallDataset("reddit", 0.1);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 8,
                                      ds.num_classes, 2, 7);
  EngineConfig o;
  o.device_capacity_bytes = kBig;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  TrainerOptions bad;
  bad.max_epochs = 0;
  EXPECT_TRUE(
      TrainToConvergence(e.ValueOrDie().get(), bad).status().IsInvalid());
  EXPECT_TRUE(TrainToConvergence<HongTuEngine>(nullptr, TrainerOptions())
                  .status()
                  .IsInvalid());
}

TEST(EpochStats, ComponentsPopulated) {
  Dataset ds = SmallDataset("it-2004", 0.1);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 3);
  EngineConfig o;
  o.num_devices = 4;
  o.chunks_per_partition = 4;
  o.device_capacity_bytes = kBig;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  auto r = e.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(r.ok());
  const EpochStats& st = r.ValueOrDie();
  EXPECT_GT(st.time.gpu, 0);
  EXPECT_GT(st.time.h2d, 0);
  EXPECT_GT(st.time.cpu, 0);
  EXPECT_GT(st.bytes.h2d, 0);
  EXPECT_GT(st.peak_device_bytes, 0);
  EXPECT_GT(st.wall_seconds, 0);
  EXPECT_GT(st.SimSeconds(), 0);
}

}  // namespace
}  // namespace hongtu
