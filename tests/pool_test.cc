// Tests for the arena-backed tensor pool (tensor/pool.h) and its contract
// with Tensor: bucket reuse, 64-byte alignment, uninitialized-vs-zeroed
// semantics, concurrent borrow/return from the three pipeline lanes, and the
// engine-level guarantee the tentpole is about — after the first epoch the
// HongTu chunk loops perform ZERO heap allocations, proven via the pool's
// hit/miss counters across pipeline depths {1, 2, 3}.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "hongtu/common/fault.h"
#include "hongtu/engine/hongtu_engine.h"
#include "hongtu/engine/inmemory_engine.h"
#include "hongtu/tensor/pool.h"
#include "hongtu/tensor/tensor.h"

namespace hongtu {
namespace {

constexpr int64_t kBig = 1ll << 40;

/// Pins the pool's enabled state for one test (the suite must behave the
/// same under HONGTU_DISABLE_POOL=1, where tests asserting pooled behavior
/// would otherwise see the escape-hatch semantics).
class ScopedPoolEnabled {
 public:
  explicit ScopedPoolEnabled(bool on)
      : saved_(TensorPool::Global().enabled()) {
    TensorPool::Global().SetEnabled(on);
  }
  ~ScopedPoolEnabled() { TensorPool::Global().SetEnabled(saved_); }

 private:
  bool saved_;
};

TEST(TensorPool, BucketRounding) {
  // <= 16 floats share the single 64 B bucket.
  EXPECT_EQ(TensorPool::BucketFloats(1), 16);
  EXPECT_EQ(TensorPool::BucketFloats(16), 16);
  // Multiples of the granule are their own class.
  EXPECT_EQ(TensorPool::BucketFloats(17), 32);
  EXPECT_EQ(TensorPool::BucketFloats(96), 96);
  // Above 128 the granule is next_pow2/8: waste stays under 12.5%.
  EXPECT_EQ(TensorPool::BucketFloats(1000), 1024);
  EXPECT_EQ(TensorPool::BucketFloats(1025), 1152);
  for (int64_t n : {7ll, 100ll, 999ll, 4097ll, 1000000ll}) {
    const int64_t b = TensorPool::BucketFloats(n);
    EXPECT_GE(b, n);
    EXPECT_LE(static_cast<double>(b), 1.125 * static_cast<double>(n) + 16);
    EXPECT_EQ(b % 16, 0) << "bucket must stay 64-byte aligned in size";
  }
  EXPECT_EQ(TensorPool::BucketFloats(0), 0);
}

TEST(TensorPool, BucketReuseIsAHit) {
  ScopedPoolEnabled scope(true);
  TensorPool& pool = TensorPool::Global();
  const PoolStats before = pool.stats();
  int64_t cap = 0;
  float* p = pool.Acquire(1000, &cap);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(cap, TensorPool::BucketFloats(1000));
  pool.Release(p, cap);
  // Same class again (1010 rounds to the same bucket): must come back from
  // the free list — same pointer, hit counter bumped, no new heap bytes.
  int64_t cap2 = 0;
  float* q = pool.Acquire(1010, &cap2);
  EXPECT_EQ(q, p);
  EXPECT_EQ(cap2, cap);
  pool.Release(q, cap2);
  const PoolStats after = pool.stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses + 1);
}

TEST(TensorPool, SixtyFourByteAlignment) {
  for (int64_t n : {1ll, 5ll, 16ll, 100ll, 4096ll, 100000ll}) {
    Tensor t = Tensor::Uninitialized(n, 1);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.data()) % 64, 0u)
        << "rows=" << n;
  }
  Tensor z(37, 3);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(z.data()) % 64, 0u);
}

TEST(TensorPool, ZeroedTensorIsCleanAfterDirtyReuse) {
  ScopedPoolEnabled scope(true);
  // Dirty a buffer, return it to the pool, and re-acquire its class through
  // both constructors: Zeros must scrub it, Uninitialized must not pay for
  // a fill (we can only assert the zeroed half — stale contents of the
  // uninitialized path are unspecified).
  const int64_t rows = 123, cols = 7;
  {
    Tensor dirty = Tensor::Uninitialized(rows, cols);
    dirty.Fill(42.0f);
  }
  Tensor clean(rows, cols);
  for (int64_t i = 0; i < clean.size(); ++i) {
    ASSERT_EQ(clean.data()[i], 0.0f) << "index " << i;
  }
}

TEST(TensorPool, EnsureShapeReusesCapacity) {
  ScopedPoolEnabled scope(true);
  TensorPool& pool = TensorPool::Global();
  Tensor t = Tensor::Uninitialized(100, 32);
  const float* p = t.data();
  const PoolStats before = pool.stats();
  // Shrinking and regrowing within capacity must not touch the pool.
  t.EnsureShape(10, 32);
  t.EnsureShape(0, 32);
  t.EnsureShape(100, 32);
  EXPECT_EQ(t.data(), p);
  const PoolStats after = pool.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(TensorPool, ViewsDoNotOwnOrRelease) {
  Tensor t = Tensor::Uninitialized(8, 4);
  t.Fill(3.0f);
  Tensor v = Tensor::View(t);
  EXPECT_FALSE(v.owns_data());
  EXPECT_EQ(v.data(), t.data());
  Tensor slice = t.RowSlice(2, 3);
  EXPECT_EQ(slice.rows(), 3);
  EXPECT_EQ(slice.data(), t.row(2));
  // Moving a view transfers the alias; destroying it releases nothing.
  Tensor moved = std::move(v);
  EXPECT_EQ(moved.data(), t.data());
  { Tensor dies = std::move(moved); }
  EXPECT_EQ(t.at(0, 0), 3.0f);
  // Clone of a view is a deep, owning copy.
  Tensor c = slice.Clone();
  EXPECT_TRUE(c.owns_data());
  c.at(0, 0) = -1.0f;
  EXPECT_EQ(t.at(2, 0), 3.0f);
}

TEST(TensorPool, ConcurrentBorrowReturnThreeLanes) {
  // The pipelined executor's three stage lanes hammer the pool
  // concurrently; run the same pattern raw. TSan-clean by construction
  // (every pool op is under the pool mutex).
  ScopedPoolEnabled scope(true);
  TensorPool& pool = TensorPool::Global();
  const PoolStats before = pool.stats();
  constexpr int kIters = 2000;
  std::vector<std::thread> lanes;
  for (int lane = 0; lane < 3; ++lane) {
    lanes.emplace_back([lane] {
      for (int it = 0; it < kIters; ++it) {
        const int64_t n = 64 + 16 * ((lane + it) % 7);
        Tensor t = Tensor::Uninitialized(n, 8);
        t.data()[0] = static_cast<float>(lane);
        t.data()[t.size() - 1] = static_cast<float>(it);
        Tensor z(16, 4);
        ASSERT_EQ(z.at(0, 0), 0.0f);
      }
    });
  }
  for (auto& th : lanes) th.join();
  const PoolStats after = pool.stats();
  // Everything was returned.
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  // The overwhelming majority of the 3 x 2 x kIters acquires were hits.
  EXPECT_GE(after.hits - before.hits, 3 * 2 * kIters - 64);
}

TEST(TensorPool, DisabledModeStillMetersAndFrees) {
  TensorPool& pool = TensorPool::Global();
  ScopedPoolEnabled disabled(false);
  const PoolStats base = pool.stats();
  {
    Tensor t = Tensor::Uninitialized(500, 10);
    // Escape-hatch semantics: the buffer is freshly heap-allocated and
    // zero-filled like the pre-pool constructor.
    for (int64_t i = 0; i < t.size(); ++i) ASSERT_EQ(t.data()[i], 0.0f);
    const PoolStats during = pool.stats();
    EXPECT_EQ(during.misses, base.misses + 1);
    EXPECT_GT(during.live_bytes, base.live_bytes);
  }
  const PoolStats after = pool.stats();
  EXPECT_EQ(after.live_bytes, base.live_bytes);
  EXPECT_EQ(after.cached_bytes, 0);  // nothing parked while disabled
  {
    // Re-enabled: round trips park and reuse again.
    ScopedPoolEnabled enabled(true);
    { Tensor t = Tensor::Uninitialized(500, 10); }
    const PoolStats s1 = pool.stats();
    { Tensor t = Tensor::Uninitialized(500, 10); }
    EXPECT_EQ(pool.stats().hits, s1.hits + 1);
  }
}

// ---- Engine-level steady-state guarantee ----------------------------------

Dataset PoolDataset() {
  auto r = LoadDatasetScaled("reddit", 0.2);
  EXPECT_TRUE(r.ok());
  return r.MoveValueUnsafe();
}

class ZeroAllocTest : public ::testing::TestWithParam<int> {};

TEST_P(ZeroAllocTest, NoHeapAllocationsAfterFirstEpoch) {
  ScopedPoolEnabled scope(true);
  const int depth = GetParam();
  Dataset ds = PoolDataset();
  for (GnnKind kind : {GnnKind::kGcn, GnnKind::kGat}) {
    ModelConfig cfg =
        ModelConfig::Make(kind, ds.feature_dim(), 16, ds.num_classes, 2, 99);
    EngineConfig o;
    o.num_devices = 4;
    o.chunks_per_partition = 4;
    o.device_capacity_bytes = kBig;
    o.max_inflight = depth;
    auto e = HongTuEngine::Create(&ds, cfg, o);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    // Epoch 1 may miss while buckets fill (pre-sized workspaces keep the
    // engine's own loops clean; layer-internal scratch warms up here).
    auto warm = e.ValueOrDie()->TrainEpoch();
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    // Steady state: the chunk loops must not touch the heap at all.
    for (int epoch = 2; epoch <= 3; ++epoch) {
      auto r = e.ValueOrDie()->TrainEpoch();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.ValueOrDie().host_alloc_count, 0)
          << GnnKindName(kind) << " depth=" << depth << " epoch=" << epoch;
      EXPECT_GT(r.ValueOrDie().host_pool_hits, 0);
      EXPECT_GT(r.ValueOrDie().host_peak_bytes, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, ZeroAllocTest, ::testing::Values(1, 2, 3));

TEST(ZeroAllocConcurrentDevices, GatFourDevicesEightChunks) {
  // gat-friendster's layout: four devices run each batch's kernels at once
  // on the engine's device workers. Each worker draws from its own pool
  // arena, so the concurrent temporaries settle into a steady state and
  // stay there, epoch after epoch.
  ScopedPoolEnabled scope(true);
  Dataset ds = PoolDataset();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGat, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 99);
  EngineConfig o;
  o.num_devices = 4;
  o.chunks_per_partition = 8;
  o.device_capacity_bytes = kBig;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  ASSERT_TRUE(e.ValueOrDie()->TrainEpoch().ok());
  for (int epoch = 2; epoch <= 6; ++epoch) {
    auto r = e.ValueOrDie()->TrainEpoch();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.ValueOrDie().host_alloc_count, 0) << "epoch " << epoch;
    EXPECT_GT(r.ValueOrDie().host_pool_hits, 0);
  }
}

TEST(ZeroAllocCompressed, Bf16CommStaysAllocationFree) {
  // The mixed-precision wire reshapes the executor's transition buffers to
  // the packed width; steady-state epochs must stay off the heap exactly
  // like the fp32 path (the codec kernels allocate nothing).
  ScopedPoolEnabled scope(true);
  Dataset ds = PoolDataset();
  for (const int depth : {1, 3}) {
    ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                        ds.num_classes, 2, 99);
    EngineConfig o;
    o.num_devices = 4;
    o.chunks_per_partition = 4;
    o.device_capacity_bytes = kBig;
    o.max_inflight = depth;
    o.comm_precision = kernels::CommPrecision::kBf16;
    auto e = HongTuEngine::Create(&ds, cfg, o);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    ASSERT_TRUE(e.ValueOrDie()->TrainEpoch().ok());
    for (int epoch = 2; epoch <= 3; ++epoch) {
      auto r = e.ValueOrDie()->TrainEpoch();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.ValueOrDie().host_alloc_count, 0)
          << "depth=" << depth << " epoch=" << epoch;
      EXPECT_GT(r.ValueOrDie().host_pool_hits, 0);
    }
  }
}

TEST(ZeroAllocArmed, ArmedButUnfiredSitesKeepSteadyStateAllocationFree) {
  // Arming the fault registry switches every Poke from the relaxed-load
  // fast path onto the locked bookkeeping path. That path must not
  // allocate: with sites armed at probability 0 (checked every batch, never
  // firing) the steady-state zero-allocation guarantee has to hold exactly
  // as in the disarmed suite.
  ScopedPoolEnabled scope(true);
  Dataset ds = PoolDataset();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 99);
  EngineConfig o;
  o.num_devices = 4;
  o.chunks_per_partition = 4;
  o.device_capacity_bytes = kBig;
  auto e = HongTuEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  ASSERT_TRUE(e.ValueOrDie()->TrainEpoch().ok());

  fault::SiteSpec idle;
  idle.kind = fault::Kind::kTransient;
  idle.prob = 0.0;
  for (fault::Site site :
       {fault::Site::kPoolAlloc, fault::Site::kCommFetch,
        fault::Site::kCommFlush, fault::Site::kDeviceH2D,
        fault::Site::kPipelineStage}) {
    ASSERT_TRUE(fault::Arm(site, idle).ok());
  }
  ASSERT_TRUE(fault::Armed());
  for (int epoch = 2; epoch <= 3; ++epoch) {
    auto r = e.ValueOrDie()->TrainEpoch();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.ValueOrDie().host_alloc_count, 0) << "epoch " << epoch;
    EXPECT_EQ(r.ValueOrDie().recovery.total(), 0);
  }
  // The armed sites were really consulted — the guarantee covered the
  // locked path, not an unvisited one.
  EXPECT_GT(fault::StatsFor(fault::Site::kCommFetch).checks, 0);
  fault::DisarmAll();
}

TEST(TensorPoolEngine, PooledMatchesUnpooledNumerics) {
  // HONGTU_DISABLE_POOL A/B: the pool must be numerically invisible across
  // all five layer types (<= 1e-4; in fact the arithmetic is identical).
  Dataset ds = PoolDataset();
  for (GnnKind kind : {GnnKind::kGcn, GnnKind::kSage, GnnKind::kGin,
                       GnnKind::kGat, GnnKind::kGgnn}) {
    ModelConfig cfg =
        ModelConfig::Make(kind, ds.feature_dim(), 16, ds.num_classes, 2, 7);
    EngineConfig o;
    o.num_devices = 4;
    o.chunks_per_partition = 3;
    o.device_capacity_bytes = kBig;
    const auto run = [&](bool pooled) {
      ScopedPoolEnabled scope(pooled);
      auto e = HongTuEngine::Create(&ds, cfg, o);
      EXPECT_TRUE(e.ok());
      std::vector<double> losses;
      for (int epoch = 0; epoch < 2; ++epoch) {
        auto r = e.ValueOrDie()->TrainEpoch();
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        losses.push_back(r.ValueOrDie().loss);
      }
      std::vector<Tensor> params;
      for (Tensor* p : e.ValueOrDie()->model()->AllParams()) {
        params.push_back(p->Clone());
      }
      return std::make_pair(losses, std::move(params));
    };
    auto [loss_on, params_on] = run(true);
    auto [loss_off, params_off] = run(false);
    for (size_t i = 0; i < loss_on.size(); ++i) {
      EXPECT_NEAR(loss_on[i], loss_off[i], 1e-4) << GnnKindName(kind);
    }
    ASSERT_EQ(params_on.size(), params_off.size());
    for (size_t i = 0; i < params_on.size(); ++i) {
      EXPECT_LE(Tensor::MaxAbsDiff(params_on[i], params_off[i]), 1e-4)
          << GnnKindName(kind) << " param " << i;
    }
  }
}

TEST(TensorPoolEngine, EpochStatsExposePoolCounters) {
  Dataset ds = PoolDataset();
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, ds.feature_dim(), 16,
                                      ds.num_classes, 2, 5);
  EngineConfig o;
  o.num_devices = 1;
  o.device_capacity_bytes = kBig;
  auto e = InMemoryEngine::Create(&ds, cfg, o);
  ASSERT_TRUE(e.ok());
  auto r = e.ValueOrDie()->TrainEpoch();
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.ValueOrDie().host_peak_bytes, 0);
}

}  // namespace
}  // namespace hongtu
