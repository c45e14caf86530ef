#include "hongtu/kernels/schedule.h"

#include <unistd.h>

#include <algorithm>

#include "hongtu/common/parallel.h"

namespace hongtu {
namespace kernels {

int64_t EdgeSchedule::DetectL2Bytes() {
  static const int64_t bytes = [] {
#ifdef _SC_LEVEL2_CACHE_SIZE
    const long v = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (v > 0) return static_cast<int64_t>(v);
#endif
    return static_cast<int64_t>(1) << 20;
  }();
  return bytes;
}

namespace {

int64_t BandRowsFor(int64_t l2_bytes, int max_dim) {
  const int64_t row_bytes =
      static_cast<int64_t>(std::max(max_dim, 1)) * sizeof(float);
  return std::max<int64_t>(256, l2_bytes / row_bytes);
}

}  // namespace

int64_t EdgeSchedule::ResolveBandRows(const EdgeScheduleParams& p) {
  const int64_t l2 = p.l2_bytes > 0 ? p.l2_bytes : DetectL2Bytes();
  return BandRowsFor(l2, p.max_dim);
}

int EdgeSchedule::NumBands(int64_t num_in, const EdgeScheduleParams& p) {
  const int64_t band_rows = ResolveBandRows(p);
  return static_cast<int>(
      std::max<int64_t>((std::max<int64_t>(num_in, 0) + band_rows - 1) /
                            band_rows,
                        1));
}

void EdgeSchedule::ShardRowBounds(int64_t num_out, const int64_t* offsets,
                                  const EdgeScheduleParams& p, int64_t* out) {
  const int S = std::max(p.num_shards, 1);
  const int64_t E = num_out > 0 ? offsets[num_out] : 0;
  for (int t = 0; t <= S; ++t) {
    if (t == 0) {
      out[t] = 0;
    } else if (t == S) {
      out[t] = num_out;
    } else {
      const int64_t w0 = offsets[0] + E * t / S;
      out[t] = std::lower_bound(offsets, offsets + num_out, w0) - offsets;
    }
  }
}

int64_t EdgeSchedule::EstimateBytes(int64_t num_out, int64_t num_in,
                                    int64_t num_edges, bool has_weights,
                                    const EdgeScheduleParams& p) {
  const int64_t B = NumBands(num_in, p);
  if (num_edges <= 0 || B < 2) return 0;  // Build compiles nothing
  const int64_t S = std::max(p.num_shards, 1);
  const int64_t floats = 2 * ((S * B + 1) + 2 * (S + 1)) + 3 * num_edges +
                         (has_weights ? num_edges : 0) + num_out;
  return floats * static_cast<int64_t>(sizeof(float));
}

bool EdgeSchedule::ShouldUse(int64_t dim, bool accumulate) const {
  if (empty() || num_bands_ < 2) return false;
  if (dim < 16 || dim > 256) return false;
  if (!accumulate && dim < 32) return false;
  return num_in_ * dim * static_cast<int64_t>(sizeof(float)) > l2_bytes_;
}

EdgeSchedule EdgeSchedule::Build(int64_t num_out, const int64_t* offsets,
                                 const int32_t* idx, const float* weights,
                                 int64_t num_in, const EdgeScheduleParams& p,
                                 const int64_t* bucket_counts) {
  EdgeSchedule s;
  s.num_out_ = std::max<int64_t>(num_out, 0);
  s.num_in_ = std::max<int64_t>(num_in, 0);
  s.num_edges_ = num_out > 0 ? offsets[num_out] : 0;
  s.l2_bytes_ = p.l2_bytes > 0 ? p.l2_bytes : DetectL2Bytes();
  if (s.num_edges_ <= 0) return s;

  // One band's input slice holds band_rows rows of max_dim floats filling
  // the L2 budget — the measured optimum across dims and thread tiers
  // (smaller bands shorten the per-(row, band) runs and re-walk the output
  // more; larger ones spill the slice). The 256-row floor keeps degenerate
  // configurations (huge dims, tiny budgets in tests) from exploding the
  // band count.
  s.band_rows_ = BandRowsFor(s.l2_bytes_, p.max_dim);
  s.num_bands_ = NumBands(s.num_in_, p);
  s.num_shards_ = std::max(p.num_shards, 1);
  // One band is the single-pass walk in another order, and ShouldUse never
  // accepts it: keep the shape, compile and allocate nothing.
  if (s.num_bands_ < 2) return s;

  const int S = s.num_shards_;
  const int B = s.num_bands_;
  const int64_t E = s.num_edges_;

  // Every pass below is parallel *over shards*: a shard owns a contiguous
  // output-row range and the bucket ids (t * B + b), so counting, zero-row
  // collection and placement touch disjoint array ranges per shard and the
  // result is identical to the serial sweep. The cutoff of 2 items keeps
  // single-shard (and test-sized) builds serial.
  constexpr int64_t kShardParallelCutoff = 2;

  // ---- Slab layout: int64 tables first (alignment), then int32/f32 arrays.
  const int64_t n_bucket = static_cast<int64_t>(S) * B + 1;
  const int64_t n_shard = S + 1;

  // Shard boundaries first (cheap binary searches): contiguous output-row
  // ranges with equal edge shares (same split rule as ParallelForBalanced).
  // The zero-degree rows are then counted per shard, giving both the exact
  // slab size and the per-shard write offsets the parallel placement needs.
  PoolBuffer pre_buf(2 * (n_shard + n_shard));
  int64_t* shard_bounds = reinterpret_cast<int64_t*>(pre_buf.data());
  int64_t* zero_prefix = shard_bounds + n_shard;
  ShardRowBounds(num_out, offsets, p, shard_bounds);
  ParallelForChunked(0, S, kShardParallelCutoff, [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      int64_t zc = 0;
      for (int64_t d = shard_bounds[t]; d < shard_bounds[t + 1]; ++d) {
        if (offsets[d + 1] == offsets[d]) ++zc;
      }
      zero_prefix[t + 1] = zc;
    }
  });
  zero_prefix[0] = 0;
  for (int t = 0; t < S; ++t) zero_prefix[t + 1] += zero_prefix[t];
  const int64_t zero_rows = zero_prefix[S];
  s.num_zero_rows_ = zero_rows;

  const bool has_w = weights != nullptr;
  const int64_t floats = 2 * (n_bucket + 2 * n_shard) +  // int64 tables
                         3 * E +                         // rnd/out/edge perm
                         (has_w ? E : 0) + zero_rows;
  s.slab_ = PoolBuffer(floats);
  s.slab_floats_ = floats;

  float* base = s.slab_.data();
  int64_t* bucket_off = reinterpret_cast<int64_t*>(base);
  int64_t* shard_edges = bucket_off + n_bucket;
  int64_t* shard_rows = shard_edges + n_shard;
  int32_t* rnd_perm = reinterpret_cast<int32_t*>(shard_rows + n_shard);
  int32_t* out_perm = rnd_perm + E;
  int32_t* edge_perm = out_perm + E;
  float* w_perm = has_w ? reinterpret_cast<float*>(edge_perm + E) : nullptr;
  int32_t* zrows =
      reinterpret_cast<int32_t*>(edge_perm + E + (has_w ? E : 0));

  std::copy(shard_bounds, shard_bounds + n_shard, shard_rows);

  // ---- Counting by (shard, band), stable in output-row-major order — or a
  // straight copy when the caller walked the edges already (the gather pass
  // that produced `bucket_counts`).
  const int64_t band_rows = s.band_rows_;
  if (bucket_counts != nullptr) {
    bucket_off[0] = 0;
    std::copy(bucket_counts, bucket_counts + (n_bucket - 1), bucket_off + 1);
  } else {
    std::fill(bucket_off, bucket_off + n_bucket, 0);
    ParallelForChunked(
        0, S, kShardParallelCutoff, [&](int64_t lo, int64_t hi) {
          for (int64_t t = lo; t < hi; ++t) {
            int64_t* cnt = bucket_off + t * B;
            for (int64_t e = offsets[shard_rows[t]];
                 e < offsets[shard_rows[t + 1]]; ++e) {
              ++cnt[idx[e] / band_rows + 1];
            }
          }
        });
  }
  for (int64_t i = 1; i < n_bucket; ++i) bucket_off[i] += bucket_off[i - 1];

  for (int t = 0; t <= S; ++t) {
    shard_edges[t] = bucket_off[static_cast<int64_t>(t) * B];
  }

  // ---- Placement pass. Within one output row, the run that executes first
  // is the one in the row's lowest populated band; its first edge carries
  // the first-run flag so non-accumulating kernels store instead of RMW.
  {
    // pos[] borrows the prefix array shifted by one: pos for bucket k starts
    // at bucket_off[k]. A scratch copy keeps bucket_off intact. Shard t only
    // advances pos[t*B .. t*B+B) and writes zrows[zero_prefix[t] ..), so the
    // shard-parallel sweep is race-free.
    PoolBuffer pos_buf(2 * (n_bucket - 1));
    int64_t* pos = reinterpret_cast<int64_t*>(pos_buf.data());
    std::copy(bucket_off, bucket_off + n_bucket - 1, pos);
    ParallelForChunked(
        0, S, kShardParallelCutoff, [&](int64_t lo, int64_t hi) {
          for (int64_t t = lo; t < hi; ++t) {
            int64_t zi = zero_prefix[t];
            for (int64_t d = shard_rows[t]; d < shard_rows[t + 1]; ++d) {
              const int64_t e0 = offsets[d], e1 = offsets[d + 1];
              if (e0 == e1) {
                zrows[zi++] = static_cast<int32_t>(d);
                continue;
              }
              int64_t min_band = B;
              for (int64_t e = e0; e < e1; ++e) {
                min_band = std::min<int64_t>(min_band, idx[e] / band_rows);
              }
              bool flagged = false;
              for (int64_t e = e0; e < e1; ++e) {
                const int64_t b = idx[e] / band_rows;
                const int64_t k = pos[t * B + b]++;
                rnd_perm[k] = idx[e];
                int32_t ov = static_cast<int32_t>(d);
                if (b == min_band && !flagged) {
                  ov |= ~kRowMask;  // sign bit: first run of this row
                  flagged = true;
                }
                out_perm[k] = ov;
                edge_perm[k] = static_cast<int32_t>(e);
                if (has_w) w_perm[k] = weights[e];
              }
            }
          }
        });
  }

  s.bucket_off_ = bucket_off;
  s.shard_edges_ = shard_edges;
  s.shard_rows_ = shard_rows;
  s.rnd_perm_ = rnd_perm;
  s.out_perm_ = out_perm;
  s.edge_perm_ = edge_perm;
  s.w_perm_ = w_perm;
  s.built_weights_ = weights;
  s.zero_rows_ = zrows;
  return s;
}

}  // namespace kernels
}  // namespace hongtu
