// End-to-end integration tests: real training to accuracy targets, the
// paper's qualitative claims at reproduction scale, and cross-module checks.

#include <gtest/gtest.h>

#include "hongtu/comm/reorganize.h"
#include "hongtu/engine/hongtu_engine.h"
#include "hongtu/engine/inmemory_engine.h"
#include "hongtu/engine/minibatch_engine.h"

namespace hongtu {
namespace {

constexpr int64_t kBig = 1ll << 40;

TEST(Training, FullGraphGcnLearnsRedditLike) {
  // Fig. 8: full-graph GCN converges to high accuracy on the community
  // labeled dataset.
  auto dsr = LoadDatasetScaled("reddit", 0.3);
  ASSERT_TRUE(dsr.ok());
  const Dataset& ds = dsr.ValueOrDie();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 32,
                                      ds.num_classes, 2, 2024);
  EngineConfig o;
  o.num_devices = 4;
  o.chunks_per_partition = 2;
  o.device_capacity_bytes = kBig;
  o.adam.lr = 0.01f;
  auto er = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(er.ok());
  auto& engine = *er.ValueOrDie();
  double first_loss = 0, last_loss = 0;
  for (int epoch = 0; epoch < 30; ++epoch) {
    auto r = engine.TrainEpoch();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (epoch == 0) first_loss = r.ValueOrDie().loss;
    last_loss = r.ValueOrDie().loss;
  }
  EXPECT_LT(last_loss, 0.5 * first_loss);
  auto val = engine.EvaluateAccuracy(SplitRole::kVal);
  ASSERT_TRUE(val.ok());
  EXPECT_GT(val.ValueOrDie(), 0.8);  // SBM community labels are learnable
}

TEST(Training, GatLearnsOnCommunityGraph) {
  auto dsr = LoadDatasetScaled("ogbn-products", 0.15);
  ASSERT_TRUE(dsr.ok());
  const Dataset& ds = dsr.ValueOrDie();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGat, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 99);
  EngineConfig o;
  o.num_devices = 4;
  o.chunks_per_partition = 2;
  o.device_capacity_bytes = kBig;
  auto er = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(er.ok());
  double first = 0, last = 0;
  for (int epoch = 0; epoch < 15; ++epoch) {
    auto r = er.ValueOrDie()->TrainEpoch();
    ASSERT_TRUE(r.ok());
    if (epoch == 0) first = r.ValueOrDie().loss;
    last = r.ValueOrDie().loss;
  }
  EXPECT_LT(last, 0.7 * first);
}

TEST(Training, ChunkCountDoesNotChangeNumerics) {
  // Fig. 10 prerequisite: more chunks trade memory for communication but
  // never change results.
  auto dsr = LoadDatasetScaled("it-2004", 0.1);
  ASSERT_TRUE(dsr.ok());
  const Dataset& ds = dsr.ValueOrDie();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 5);
  double ref_loss = -1;
  int64_t prev_peak = INT64_MAX;
  int64_t prev_h2d = 0;
  for (int chunks : {1, 2, 4, 8}) {
    EngineConfig o;
    o.num_devices = 4;
    o.chunks_per_partition = chunks;
    o.device_capacity_bytes = kBig;
    auto er = HongTuEngine::Create(&ds, cfg, o);
    ASSERT_TRUE(er.ok());
    auto r = er.ValueOrDie()->TrainEpoch();
    ASSERT_TRUE(r.ok());
    if (ref_loss < 0) {
      ref_loss = r.ValueOrDie().loss;
    } else {
      EXPECT_NEAR(r.ValueOrDie().loss, ref_loss, 1e-3);
    }
    // Memory decreases (or stays) as chunks increase; host traffic grows.
    EXPECT_LE(r.ValueOrDie().peak_device_bytes, prev_peak);
    EXPECT_GE(r.ValueOrDie().bytes.h2d, prev_h2d);
    prev_peak = r.ValueOrDie().peak_device_bytes;
    prev_h2d = r.ValueOrDie().bytes.h2d;
  }
}

TEST(Training, MoreDevicesReduceSimTime) {
  // Fig. 11: scaling from 1 to 4 devices shortens the simulated epoch.
  auto dsr = LoadDatasetScaled("friendster", 0.15);
  ASSERT_TRUE(dsr.ok());
  const Dataset& ds = dsr.ValueOrDie();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 5);
  double prev = 1e30;
  for (int devices : {1, 2, 4}) {
    EngineConfig o;
    o.num_devices = devices;
    o.chunks_per_partition = 8 / devices;  // constant total chunk count
    o.device_capacity_bytes = kBig;
    auto er = HongTuEngine::Create(&ds, cfg, o);
    ASSERT_TRUE(er.ok());
    auto r = er.ValueOrDie()->TrainEpoch();
    ASSERT_TRUE(r.ok());
    EXPECT_LT(r.ValueOrDie().SimSeconds(), prev);
    prev = r.ValueOrDie().SimSeconds();
  }
}

TEST(Training, DedupReducesSimTimeOnLargeGraph) {
  // §7.3: deduplicated communication speeds up the epoch (1.3x-3.4x in the
  // paper); at minimum it must never be slower.
  auto dsr = LoadDatasetScaled("ogbn-paper", 0.2);
  ASSERT_TRUE(dsr.ok());
  const Dataset& ds = dsr.ValueOrDie();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 5);
  EngineConfig base;
  base.num_devices = 4;
  base.chunks_per_partition = 8;
  base.device_capacity_bytes = kBig;
  base.dedup = DedupLevel::kNone;
  base.reorganize = false;
  EngineConfig full = base;
  full.dedup = DedupLevel::kP2PReuse;
  full.reorganize = true;
  auto eb = HongTuEngine::Create(&ds, cfg, base);
  auto ef = HongTuEngine::Create(&ds, cfg, full);
  ASSERT_TRUE(eb.ok() && ef.ok());
  auto rb = eb.ValueOrDie()->TrainEpoch();
  auto rf = ef.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(rb.ok() && rf.ok());
  const double t_base = rb.ValueOrDie().time.h2d + rb.ValueOrDie().time.d2d;
  const double t_full = rf.ValueOrDie().time.h2d + rf.ValueOrDie().time.d2d;
  EXPECT_LT(t_full, t_base);
}

TEST(Training, EvaluateAfterTrainingImproves) {
  auto dsr = LoadDatasetScaled("ogbn-products", 0.15);
  ASSERT_TRUE(dsr.ok());
  const Dataset& ds = dsr.ValueOrDie();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kSage, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 5);
  EngineConfig o;
  o.num_devices = 2;
  o.chunks_per_partition = 2;
  o.device_capacity_bytes = kBig;
  auto er = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(er.ok());
  auto before = er.ValueOrDie()->EvaluateAccuracy(SplitRole::kTest);
  ASSERT_TRUE(before.ok());
  for (int epoch = 0; epoch < 10; ++epoch) {
    ASSERT_TRUE(er.ValueOrDie()->TrainEpoch().ok());
  }
  auto after = er.ValueOrDie()->EvaluateAccuracy(SplitRole::kTest);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after.ValueOrDie(), before.ValueOrDie());
}

TEST(Training, FullGraphBeatsMiniBatchOnRedditLike) {
  // Fig. 8(a): on the reddit-like graph full-graph training reaches at
  // least the accuracy of fanout-10 mini-batch training.
  auto dsr = LoadDatasetScaled("reddit", 0.3);
  ASSERT_TRUE(dsr.ok());
  const Dataset& ds = dsr.ValueOrDie();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 32,
                                      ds.num_classes, 2, 2024);

  EngineConfig fo;
  fo.num_devices = 2;
  fo.chunks_per_partition = 2;
  fo.device_capacity_bytes = kBig;
  auto fg = HongTuEngine::Create(&ds, cfg, fo);
  ASSERT_TRUE(fg.ok());
  EngineConfig mo;
  mo.num_devices = 2;
  mo.device_capacity_bytes = kBig;
  mo.batch_size = 256;
  auto mb = MiniBatchEngine::Create(&ds, cfg, mo);
  ASSERT_TRUE(mb.ok());
  for (int epoch = 0; epoch < 20; ++epoch) {
    ASSERT_TRUE(fg.ValueOrDie()->TrainEpoch().ok());
    ASSERT_TRUE(mb.ValueOrDie()->TrainEpoch().ok());
  }
  auto fa = fg.ValueOrDie()->EvaluateAccuracy(SplitRole::kVal);
  auto ma = mb.ValueOrDie()->EvaluateAccuracy(SplitRole::kVal);
  ASSERT_TRUE(fa.ok() && ma.ok());
  EXPECT_GE(fa.ValueOrDie() + 0.02, ma.ValueOrDie());
}

TEST(Preprocessing, ReorganizationOverheadIsSmall) {
  // Table 9: dedup preprocessing is a small one-off cost.
  auto dsr = LoadDatasetScaled("friendster", 0.2);
  ASSERT_TRUE(dsr.ok());
  const Dataset& ds = dsr.ValueOrDie();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 5);
  EngineConfig o;
  o.num_devices = 4;
  o.chunks_per_partition = 8;
  o.device_capacity_bytes = kBig;
  auto er = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(er.ok());
  EXPECT_GE(er.ValueOrDie()->dedup_preprocess_seconds(), 0.0);
  // One-off preprocessing should cost less than a handful of wall epochs.
  auto r = er.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(r.ok());
  EXPECT_LT(er.ValueOrDie()->dedup_preprocess_seconds(),
            50 * std::max(0.01, r.ValueOrDie().wall_seconds));
}

}  // namespace
}  // namespace hongtu
