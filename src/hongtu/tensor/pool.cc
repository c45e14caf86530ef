#include "hongtu/tensor/pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <unordered_map>
#include <vector>

#include "hongtu/common/config.h"

namespace hongtu {

namespace {

constexpr int64_t kGranuleFloats = 16;  // 64 bytes of float32
constexpr std::align_val_t kAlign{64};

float* AlignedNew(int64_t floats) {
  return static_cast<float*>(
      ::operator new(static_cast<size_t>(floats) * sizeof(float), kAlign));
}

void AlignedDelete(float* p) { ::operator delete(p, kAlign); }

/// The calling thread's free-list arena; see TensorPool::SetThreadArena.
thread_local int t_arena = 0;

int64_t BitWidth(int64_t v) {
  int64_t w = 0;
  while (v > 0) {
    v >>= 1;
    ++w;
  }
  return w;
}

}  // namespace

struct TensorPool::Impl {
  mutable std::mutex mu;
  /// Per arena (grown on first release), free lists keyed by bucket
  /// capacity in floats.
  std::vector<std::unordered_map<int64_t, std::vector<float*>>> free;
  PoolStats stats;
  /// Atomic so the Tensor fast paths (EnsureShape, Uninitialized) can read
  /// it without taking the pool lock.
  std::atomic<bool> enabled{true};
};

TensorPool::TensorPool() : impl_(new Impl) {
  // HONGTU_DISABLE_POOL, read per-construction through the single parse
  // point so scoped setenv tests see it (common/config.h).
  impl_->enabled = RuntimeConfig::FromEnv().pool_enabled;
}

TensorPool::~TensorPool() {
  Trim();
  delete impl_;
}

TensorPool& TensorPool::Global() {
  // Leaky singleton: Tensors with static storage duration (bench fixtures,
  // test caches) release into the pool during static destruction, so the
  // pool must outlive every static. Reachable through this pointer, so leak
  // checkers treat it as live.
  static TensorPool* const pool = new TensorPool();
  return *pool;
}

int64_t TensorPool::BucketFloats(int64_t floats) {
  if (floats <= 0) return 0;
  if (floats <= kGranuleFloats) return kGranuleFloats;
  // 1/8-of-pow2floor granules (min one 64 B granule): waste <= 12.5%, and
  // the near-equal chunk shapes of one layer land in a handful of buckets.
  const int64_t granule =
      std::max(kGranuleFloats, int64_t{1} << (BitWidth(floats) - 4));
  return (floats + granule - 1) / granule * granule;
}

float* TensorPool::Acquire(int64_t floats, int64_t* capacity_floats) {
  if (floats <= 0) {
    *capacity_floats = 0;
    return nullptr;
  }
  const int64_t cap = BucketFloats(floats);
  const int64_t bytes = cap * static_cast<int64_t>(sizeof(float));
  *capacity_floats = cap;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->enabled && t_arena < static_cast<int>(impl_->free.size())) {
      auto& lists = impl_->free[static_cast<size_t>(t_arena)];
      auto it = lists.find(cap);
      if (it != lists.end() && !it->second.empty()) {
        float* p = it->second.back();
        it->second.pop_back();
        ++impl_->stats.hits;
        impl_->stats.cached_bytes -= bytes;
        impl_->stats.live_bytes += bytes;
        impl_->stats.peak_live_bytes =
            std::max(impl_->stats.peak_live_bytes, impl_->stats.live_bytes);
        return p;
      }
    }
    ++impl_->stats.misses;
    impl_->stats.heap_bytes += bytes;
    impl_->stats.live_bytes += bytes;
    impl_->stats.peak_live_bytes =
        std::max(impl_->stats.peak_live_bytes, impl_->stats.live_bytes);
  }
  // The system allocation itself runs outside the lock.
  return AlignedNew(cap);
}

void TensorPool::Release(float* data, int64_t capacity_floats) {
  if (data == nullptr || capacity_floats <= 0) return;
  const int64_t bytes = capacity_floats * static_cast<int64_t>(sizeof(float));
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stats.live_bytes -= bytes;
    if (impl_->enabled) {
      if (t_arena >= static_cast<int>(impl_->free.size())) {
        impl_->free.resize(static_cast<size_t>(t_arena) + 1);
      }
      impl_->free[static_cast<size_t>(t_arena)][capacity_floats].push_back(
          data);
      impl_->stats.cached_bytes += bytes;
      return;
    }
  }
  AlignedDelete(data);
}

void TensorPool::Trim() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& lists : impl_->free) {
    for (auto& [cap, bucket] : lists) {
      for (float* p : bucket) AlignedDelete(p);
      impl_->stats.cached_bytes -=
          static_cast<int64_t>(bucket.size()) * cap *
          static_cast<int64_t>(sizeof(float));
    }
    lists.clear();
  }
}

void TensorPool::SetThreadArena(int arena) { t_arena = std::max(0, arena); }

PoolStats TensorPool::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

void TensorPool::ResetPeak() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->stats.peak_live_bytes = impl_->stats.live_bytes;
}

bool TensorPool::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void TensorPool::SetEnabled(bool on) {
  impl_->enabled.store(on, std::memory_order_relaxed);
  if (!on) Trim();
}

}  // namespace hongtu
