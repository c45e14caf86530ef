// Pipelined chunk executor tests. Two layers of coverage: the StagePipeline
// runtime itself (ordering, depth bound, error poisoning — the TSan CI job
// runs exactly this binary), and the end-to-end pin that the pipelined
// epoch loop (max_inflight >= 2) matches the in-order loop (max_inflight =
// 1) on loss/accuracy and bit for bit on parameters for every layer type,
// dedup level, and chunk count, including the single-chunk degenerate case.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <tuple>
#include <vector>

#include "hongtu/common/pipeline.h"
#include "hongtu/engine/hongtu_engine.h"

namespace hongtu {
namespace {

constexpr int64_t kBig = 1ll << 40;

// ---- StagePipeline runtime -------------------------------------------------

TEST(StagePipeline, StagesRetireInOrder) {
  std::mutex mu;
  std::vector<std::pair<int, int64_t>> events;  // (stage, item)
  std::vector<StagePipeline::StageFn> stages;
  for (int s = 0; s < 3; ++s) {
    stages.push_back([&, s](int64_t item) {
      std::lock_guard<std::mutex> lock(mu);
      events.emplace_back(s, item);
      return Status::OK();
    });
  }
  {
    StagePipeline pipe(std::move(stages), 2);
    for (int64_t j = 0; j < 7; ++j) ASSERT_TRUE(pipe.Submit(j).ok());
    ASSERT_TRUE(pipe.Flush().ok());
  }
  ASSERT_EQ(events.size(), 21u);
  // Per stage: items strictly FIFO. Per item: stage 0 before 1 before 2.
  std::vector<int64_t> next(3, 0);
  std::vector<int> reached(7, -1);
  for (const auto& [s, item] : events) {
    EXPECT_EQ(item, next[s]) << "stage " << s;
    ++next[s];
    EXPECT_EQ(reached[item], s - 1) << "item " << item;
    reached[item] = s;
  }
}

TEST(StagePipeline, DepthBoundsInFlight) {
  std::mutex mu;
  int64_t in_flight = 0;
  int64_t max_in_flight = 0;
  std::vector<StagePipeline::StageFn> stages;
  stages.push_back([&](int64_t) {
    std::lock_guard<std::mutex> lock(mu);
    max_in_flight = std::max(max_in_flight, ++in_flight);
    return Status::OK();
  });
  stages.push_back([](int64_t) { return Status::OK(); });
  stages.push_back([&](int64_t) {
    std::lock_guard<std::mutex> lock(mu);
    --in_flight;
    return Status::OK();
  });
  {
    StagePipeline pipe(std::move(stages), 3);
    for (int64_t j = 0; j < 32; ++j) ASSERT_TRUE(pipe.Submit(j).ok());
    ASSERT_TRUE(pipe.Flush().ok());
  }
  EXPECT_LE(max_in_flight, 3);
  EXPECT_EQ(in_flight, 0);
}

TEST(StagePipeline, ErrorPoisonsRemainingWork) {
  std::atomic<int> late_stage_runs{0};
  std::vector<StagePipeline::StageFn> stages;
  stages.push_back([](int64_t item) {
    return item == 2 ? Status::Internal("stage 0 failed on item 2")
                     : Status::OK();
  });
  stages.push_back([&](int64_t item) {
    if (item >= 2) ++late_stage_runs;
    return Status::OK();
  });
  StagePipeline pipe(std::move(stages), 2);
  Status last = Status::OK();
  for (int64_t j = 0; j < 6; ++j) last = pipe.Submit(j);
  const Status st = pipe.Flush();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("item 2"), std::string::npos);
  // Items after the failure are skipped, not executed.
  EXPECT_EQ(late_stage_runs.load(), 0);
}

TEST(StagePipeline, ErrorKeepsCodeAndNamesStageItemAndCause) {
  std::vector<StagePipeline::StageFn> stages;
  stages.push_back([](int64_t) { return Status::OK(); });
  stages.push_back([](int64_t item) {
    return item == 3 ? Status::Unavailable("flaky link") : Status::OK();
  });
  StagePipeline pipe(std::move(stages), 2);
  for (int64_t j = 0; j < 5; ++j) pipe.Submit(j);
  const Status st = pipe.Flush();
  ASSERT_FALSE(st.ok());
  // The wrapped sticky error names the failure point but keeps the stage's
  // own code — the engine's replay path dispatches on it.
  EXPECT_TRUE(st.IsTransient());
  EXPECT_NE(st.message().find("stage 1"), std::string::npos);
  EXPECT_NE(st.message().find("item 3"), std::string::npos);
  EXPECT_NE(st.message().find("flaky link"), std::string::npos);
}

TEST(StagePipeline, SingleItemSingleDepth) {
  int calls = 0;
  std::vector<StagePipeline::StageFn> stages;
  for (int s = 0; s < 3; ++s) {
    stages.push_back([&](int64_t) {
      ++calls;  // single item, depth 1: stages strictly sequential
      return Status::OK();
    });
  }
  StagePipeline pipe(std::move(stages), 1);
  ASSERT_TRUE(pipe.Submit(0).ok());
  ASSERT_TRUE(pipe.Flush().ok());
  EXPECT_EQ(calls, 3);
}

TEST(StagePipeline, FlushOnEmptyPipelineIsOk) {
  std::vector<StagePipeline::StageFn> stages;
  stages.push_back([](int64_t) { return Status::OK(); });
  StagePipeline pipe(std::move(stages), 4);
  EXPECT_TRUE(pipe.Flush().ok());
}

// ---- Overlap metering ------------------------------------------------------

TEST(SimPlatform, OverlapRegionChargesCriticalPath) {
  InterconnectParams p;
  p.t_hd = 100.0;
  p.gpu_flops = 10.0;
  p.gpu_mem_bw = 1e12;
  p.xfer_latency_s = 0.0;
  p.kernel_launch_s = 0.0;
  SimPlatform plat(1, 1 << 20, p);
  plat.BeginOverlap(2);
  SimPlatform::SetLane(0);
  plat.AddH2D(0, 100);  // 1 s on the comm lane
  plat.Synchronize();
  SimPlatform::SetLane(1);
  plat.AddGpuCompute(0, 20.0, 0.0);  // 2 s on the compute lane
  plat.Synchronize();
  plat.EndOverlap();
  SimPlatform::SetLane(0);
  // Busy components are preserved; the 1 s hidden behind the slower lane
  // moves into `overlapped`, so total() is the 2 s critical path.
  EXPECT_DOUBLE_EQ(plat.time().h2d, 1.0);
  EXPECT_DOUBLE_EQ(plat.time().gpu, 2.0);
  EXPECT_DOUBLE_EQ(plat.time().overlapped, 1.0);
  EXPECT_DOUBLE_EQ(plat.time().busy(), 3.0);
  EXPECT_DOUBLE_EQ(plat.time().total(), 2.0);
}

TEST(SimPlatform, SerialPhasesHaveNoOverlap) {
  SimPlatform plat(2, 1 << 20);
  plat.AddH2D(0, 1 << 20);
  plat.Synchronize();
  plat.AddGpuCompute(1, 1e9, 1e6);
  plat.Synchronize();
  EXPECT_DOUBLE_EQ(plat.time().overlapped, 0.0);
  EXPECT_DOUBLE_EQ(plat.time().total(), plat.time().busy());
}

// ---- Pipelined vs serial epoch equivalence ---------------------------------

Dataset SmallDataset(const char* name = "reddit", double scale = 0.15) {
  auto r = LoadDatasetScaled(name, scale);
  EXPECT_TRUE(r.ok());
  return r.MoveValueUnsafe();
}

/// depth 1 = batches strictly in order (the serial oracle); depth d >= 2 =
/// the pipeline with d batches in flight.
EngineConfig BaseOptions(DedupLevel level, int chunks, int depth) {
  EngineConfig o;
  o.num_devices = 4;
  o.device_capacity_bytes = kBig;
  o.chunks_per_partition = chunks;
  o.dedup = level;
  o.max_inflight = depth;
  return o;
}

class PipelineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<GnnKind, DedupLevel, int>> {};

TEST_P(PipelineEquivalenceTest, PipelinedMatchesSerial) {
  const auto& [kind, level, chunks] = GetParam();
  Dataset ds = SmallDataset();
  ModelConfig cfg =
      ModelConfig::Make(kind, ds.feature_dim(), 16, ds.num_classes, 2, 99);

  auto serial =
      HongTuEngine::Create(&ds, cfg, BaseOptions(level, chunks, /*depth=*/1));
  auto piped =
      HongTuEngine::Create(&ds, cfg, BaseOptions(level, chunks, /*depth=*/2));
  // A second pipelined run: concurrent devices must not make the weights
  // depend on thread timing.
  auto again =
      HongTuEngine::Create(&ds, cfg, BaseOptions(level, chunks, /*depth=*/2));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(piped.ok()) << piped.status().ToString();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  auto& se = *serial.ValueOrDie();
  auto& pe = *piped.ValueOrDie();
  auto& re = *again.ValueOrDie();

  for (int epoch = 0; epoch < 2; ++epoch) {
    auto a = se.TrainEpoch();
    auto b = pe.TrainEpoch();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_TRUE(re.TrainEpoch().ok());
    EXPECT_NEAR(a.ValueOrDie().loss, b.ValueOrDie().loss, 1e-4)
        << "epoch " << epoch;
    EXPECT_NEAR(a.ValueOrDie().train_accuracy, b.ValueOrDie().train_accuracy,
                1e-4)
        << "epoch " << epoch;
  }
  auto aa = se.EvaluateAccuracy(SplitRole::kVal);
  auto bb = pe.EvaluateAccuracy(SplitRole::kVal);
  ASSERT_TRUE(aa.ok() && bb.ok());
  EXPECT_NEAR(aa.ValueOrDie(), bb.ValueOrDie(), 1e-4);

  // Serial, pipelined and the repeated pipelined run agree bit for bit:
  // every device accumulates its chunks in batch order into its own
  // replica, and the replicas are reduced in device order.
  auto pa = se.model()->AllParams();
  auto pb = pe.model()->AllParams();
  auto pr = re.model()->AllParams();
  ASSERT_EQ(pa.size(), pb.size());
  ASSERT_EQ(pa.size(), pr.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->size(), pb[i]->size());
    ASSERT_EQ(pa[i]->size(), pr[i]->size());
    const size_t bytes = static_cast<size_t>(pa[i]->bytes());
    EXPECT_EQ(std::memcmp(pa[i]->data(), pb[i]->data(), bytes), 0)
        << "param " << i << ": pipelined differs from serial";
    EXPECT_EQ(std::memcmp(pb[i]->data(), pr[i]->data(), bytes), 0)
        << "param " << i << ": repeated pipelined run differs";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsLevelsChunks, PipelineEquivalenceTest,
    ::testing::Combine(::testing::Values(GnnKind::kGcn, GnnKind::kSage,
                                         GnnKind::kGin, GnnKind::kGat,
                                         GnnKind::kGgnn),
                       ::testing::Values(DedupLevel::kNone, DedupLevel::kP2P,
                                         DedupLevel::kP2PReuse),
                       ::testing::Values(1, 3, 8)));

TEST(HongTuPipeline, TwoDevicesAreBitwiseAcrossExecutorsAndRuns) {
  // The equivalence suite above runs 4 devices; 2 devices split the thread
  // budget differently and reduce a single replica into model().
  Dataset ds = SmallDataset();
  for (GnnKind kind : {GnnKind::kGcn, GnnKind::kSage, GnnKind::kGin,
                       GnnKind::kGat, GnnKind::kGgnn}) {
    ModelConfig cfg =
        ModelConfig::Make(kind, ds.feature_dim(), 16, ds.num_classes, 2, 21);
    std::vector<std::vector<float>> weights;
    for (int depth : {1, 2, 2}) {
      EngineConfig o = BaseOptions(DedupLevel::kP2PReuse, 4, depth);
      o.num_devices = 2;
      auto e = HongTuEngine::Create(&ds, cfg, o);
      ASSERT_TRUE(e.ok()) << e.status().ToString();
      for (int epoch = 0; epoch < 2; ++epoch) {
        ASSERT_TRUE(e.ValueOrDie()->TrainEpoch().ok());
      }
      std::vector<float> w;
      for (const Tensor* p : e.ValueOrDie()->model()->AllParams()) {
        w.insert(w.end(), p->data(), p->data() + p->size());
      }
      weights.push_back(std::move(w));
    }
    for (size_t r = 1; r < weights.size(); ++r) {
      ASSERT_EQ(weights[r].size(), weights[0].size());
      EXPECT_EQ(std::memcmp(weights[r].data(), weights[0].data(),
                            weights[0].size() * sizeof(float)),
                0)
          << GnnKindName(kind) << " run " << r;
    }
  }
}

TEST(HongTuPipeline, DeeperPipelineStillMatches) {
  Dataset ds = SmallDataset();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 5);
  auto serial = HongTuEngine::Create(
      &ds, cfg, BaseOptions(DedupLevel::kP2PReuse, 6, /*depth=*/1));
  auto piped = HongTuEngine::Create(
      &ds, cfg, BaseOptions(DedupLevel::kP2PReuse, 6, /*depth=*/4));
  ASSERT_TRUE(serial.ok() && piped.ok());
  auto a = serial.ValueOrDie()->TrainEpoch();
  auto b = piped.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NEAR(a.ValueOrDie().loss, b.ValueOrDie().loss, 1e-4);
}

TEST(HongTuPipeline, ReportsOverlapAndBeatsSerialSimTime) {
  // The acceptance direction of ISSUE 2: with several chunks in flight the
  // pipeline hides communication behind compute, so simulated epoch time
  // drops below the in-order (depth-1) run's and the hidden seconds
  // show up in the overlapped meter.
  Dataset ds = SmallDataset("it-2004", 0.2);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 32,
                                      ds.num_classes, 2, 11);
  auto serial = HongTuEngine::Create(
      &ds, cfg, BaseOptions(DedupLevel::kP2PReuse, 8, /*depth=*/1));
  auto piped = HongTuEngine::Create(
      &ds, cfg, BaseOptions(DedupLevel::kP2PReuse, 8, /*depth=*/3));
  ASSERT_TRUE(serial.ok() && piped.ok());
  auto a = serial.ValueOrDie()->TrainEpoch();
  auto b = piped.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(a.ok() && b.ok());
  const EpochStats& sa = a.ValueOrDie();
  const EpochStats& sb = b.ValueOrDie();
  EXPECT_DOUBLE_EQ(sa.time.overlapped, 0.0);
  EXPECT_GT(sb.time.overlapped, 0.0);
  EXPECT_LT(sb.time.total(), sb.time.busy());
  EXPECT_LT(sb.SimSeconds(), sa.SimSeconds());
  // Busy seconds (the Fig. 9 stacks) stay comparable across executors.
  EXPECT_NEAR(sa.time.busy(), sb.time.busy(), 0.15 * sa.time.busy());
}

TEST(HongTuPipeline, PipelineCostsDeviceMemory) {
  // Extra in-flight chunk buffers must be visible to the memory model.
  Dataset ds = SmallDataset();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 7);
  auto serial = HongTuEngine::Create(
      &ds, cfg, BaseOptions(DedupLevel::kP2PReuse, 4, /*depth=*/1));
  auto piped = HongTuEngine::Create(
      &ds, cfg, BaseOptions(DedupLevel::kP2PReuse, 4, /*depth=*/3));
  ASSERT_TRUE(serial.ok() && piped.ok());
  auto a = serial.ValueOrDie()->TrainEpoch();
  auto b = piped.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(b.ValueOrDie().peak_device_bytes,
            a.ValueOrDie().peak_device_bytes);
}

TEST(HongTuPipeline, FallsBackToSerialWhenPipelineDoesNotFit) {
  // Same capacity regime as engine_test's FitsWhereInMemoryOoms: the
  // pipelined working set may not fit tight devices, but the epoch must
  // still complete via the per-layer serial fallback rather than OOM.
  Dataset ds = SmallDataset("it-2004", 0.2);
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 32,
                                      ds.num_classes, 3, 1);
  EngineConfig o = BaseOptions(DedupLevel::kP2PReuse, 16, /*depth=*/4);
  o.device_capacity_bytes = 6ll << 20;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  auto r = e.ValueOrDie()->TrainEpoch();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(CommExecutor, ForwardLoadSlotRejectsBadSlot) {
  Dataset ds = SmallDataset();
  auto tl = BuildTwoLevelPartition(ds.graph, 2, 2, {});
  ASSERT_TRUE(tl.ok());
  auto plan = BuildDedupPlan(tl.ValueOrDie(), DedupLevel::kP2PReuse);
  ASSERT_TRUE(plan.ok());
  CommExecutor exec(&tl.ValueOrDie(), &plan.ValueOrDie(), nullptr);
  ASSERT_TRUE(exec.BeginLayer(8, 2).ok());
  Tensor host(ds.graph.num_vertices(), 8);
  EXPECT_TRUE(exec.ForwardLoadSlot(0, 2, host).IsInvalid());
  EXPECT_TRUE(exec.ForwardLoadSlot(0, -1, host).IsInvalid());
  EXPECT_TRUE(exec.ForwardLoadSlot(0, 1, host).ok());
}

}  // namespace
}  // namespace hongtu
