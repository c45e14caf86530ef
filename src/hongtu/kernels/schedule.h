/// \file schedule.h
/// \brief Epoch-cached edge schedules: the banded/bucketed edge permutation
/// behind the propagation-blocked aggregation kernels.
///
/// The single-pass SpMM kernels (spmm.h) walk a chunk's compressed axis in
/// row order and fetch the *other* axis at random. Once the random side's
/// row table outgrows L2, every edge is a cache miss and the kernel is
/// bound by L3/DRAM latency — the measured d64 gather/scatter plateau.
///
/// An EdgeSchedule fixes the access pattern instead of the arithmetic. It
/// compiles, once per (chunk, direction), a permutation of the edge list
/// into S x B buckets:
///
///   - B source *bands*: ranges of random-side rows sized so one band's
///     slice of the dense input fits in L2 (classic propagation/cache
///     blocking, applied to row-major SpMM). Sweeping bands in the outer
///     loop makes every random fetch inside a bucket L2-resident.
///   - S destination *shards*: contiguous, edge-balanced ranges of output
///     rows. A shard's rows are written by exactly one thread, so the
///     scatter direction parallelizes with no atomics and no false sharing.
///
/// Within a bucket, edges keep output-row-major order, so consecutive edges
/// of one output row form a *run* that accumulates in registers and touches
/// the output row once per (row, band) instead of once per edge. The first
/// run of each output row is flagged (sign bit of the packed output index)
/// so non-accumulating kernels store instead of read-modify-write — no
/// up-front zero fill of the output, no wasted first read.
///
/// Schedules are immutable after Build and shared read-only by every layer
/// and epoch — the same amortization the dedup plan gets for communication.
/// Storage is one slab from the process-wide TensorPool, so engines that
/// build schedules at setup stay allocation-free in steady-state epochs.
///
/// Banding pays only when the random side outgrows cache (Beamer et al.,
/// "Reducing PageRank Communication via Propagation Blocking", IPDPS 2017).
/// A random side that fits one band can never take the banded path, so
/// Build compiles nothing for it: the schedule keeps its shape, holds no
/// slab and costs 0 bytes, and EstimateBytes agrees.

#pragma once

#include <cstdint>

#include "hongtu/tensor/pool.h"

namespace hongtu {
namespace kernels {

/// Geometry knobs for EdgeSchedule::Build.
struct EdgeScheduleParams {
  /// Band sizing target: one band's input slice is at most `l2_bytes` at
  /// `max_dim` columns. 0 = detect the host L2 size (fallback 1 MiB).
  int64_t l2_bytes = 0;
  /// The widest feature dimension the schedule will serve. Bands are sized
  /// for this width, so narrower layers are strictly more cache-resident.
  int max_dim = 64;
  /// Destination-range buckets; the parallel-scatter width. Threads beyond
  /// this count idle in banded kernels, threads below it take several
  /// shards each (band-outer order keeps the band slice hot across them).
  int num_shards = 16;
};

/// The compiled banded/bucketed permutation of one CSR/CSC edge structure.
/// Move-only; storage is pooled and released on destruction.
class EdgeSchedule {
 public:
  EdgeSchedule() = default;

  /// Compiles the schedule for an edge structure with `num_out` output rows
  /// (compressed axis: `offsets` has num_out+1 entries), edge targets `idx`
  /// (values in [0, num_in) — the random-access axis), and optional static
  /// per-edge `weights`. When `weights` is non-null a permuted copy is
  /// stored and streamed sequentially whenever a kernel call passes the
  /// *same pointer*; other weight arrays fall back to indexed lookups
  /// through edge_perm(). The offsets/idx arrays are borrowed only during
  /// Build. `weights`, however, anchors a pointer-identity check for the
  /// schedule's lifetime: the caller must keep that array alive and
  /// unmodified as long as the schedule is used (engines satisfy this by
  /// owning chunk and schedule together) — freeing it and passing a
  /// different array that reuses the address would silently select the
  /// stale permuted copy.
  ///
  /// Build parallelizes its counting and placement passes over shards
  /// (shards own disjoint bucket and output-row ranges, so the passes are
  /// race-free and the result is identical to the serial order). When
  /// `bucket_counts` is non-null it must hold the per-bucket edge counts
  /// (num_shards * num_bands entries, bucket id = shard * num_bands + band,
  /// against ShardRowBounds/band geometry of exactly this structure) and the
  /// counting pass is skipped entirely — ChunkSchedules::Build uses this to
  /// derive the scatter mirror's histogram from the gather direction's edge
  /// walk instead of re-walking the CSR.
  ///
  /// When `num_in` fits one band (NumBands(num_in, p) < 2) the result is
  /// slab-less: shape fields set, bytes() == 0, every array accessor null,
  /// and ShouldUse false for every call.
  static EdgeSchedule Build(int64_t num_out, const int64_t* offsets,
                            const int32_t* idx, const float* weights,
                            int64_t num_in, const EdgeScheduleParams& p = {},
                            const int64_t* bucket_counts = nullptr);

  /// Rows per band Build resolves for `p` (band slice of max_dim columns
  /// fills the L2 budget; 256-row floor).
  static int64_t ResolveBandRows(const EdgeScheduleParams& p);
  /// Bands covering a random-side table of `num_in` rows under `p`.
  static int NumBands(int64_t num_in, const EdgeScheduleParams& p);
  /// The shard boundaries Build uses: max(p.num_shards, 1) + 1 ascending
  /// output-row bounds with equal edge shares, written to `out`. Exposed so
  /// histogram producers (ChunkSchedules::Build) bucket edges exactly the
  /// way Build will.
  static void ShardRowBounds(int64_t num_out, const int64_t* offsets,
                             const EdgeScheduleParams& p, int64_t* out);

  bool empty() const { return num_edges_ == 0; }
  int num_bands() const { return num_bands_; }
  int num_shards() const { return num_shards_; }
  int64_t num_out() const { return num_out_; }
  int64_t num_in() const { return num_in_; }
  int64_t num_edges() const { return num_edges_; }
  int64_t band_rows() const { return band_rows_; }
  /// Pooled bytes held by this schedule (the one-time build cost engines
  /// meter against the simulated platform); 0 for a single-band schedule.
  int64_t bytes() const { return slab_floats_ * 4; }

  /// True when the banded kernel is expected to beat the single-pass walk
  /// for a call of this shape: multiple bands (so never for the slab-less
  /// single-band schedule), a supported width, and a random-side table that
  /// exceeds the L2 the bands were sized for.
  /// Non-accumulating gathers below 32 columns stay single-pass (a 64-byte
  /// row already hides its own latency; the permuted index stream would
  /// cost more than it saves).
  bool ShouldUse(int64_t dim, bool accumulate) const;

  // ---- Kernel-facing raw arrays (all sized/packed by Build). ---------------

  /// Edge ranges per bucket, bucket id = shard * num_bands() + band;
  /// num_shards()*num_bands()+1 entries.
  const int64_t* bucket_offsets() const { return bucket_off_; }
  /// Edge-count prefix per shard (num_shards()+1 entries); feeds
  /// ParallelForBalanced so threads get equal edge shares.
  const int64_t* shard_edge_prefix() const { return shard_edges_; }
  /// Output-row boundaries per shard (num_shards()+1 entries).
  const int64_t* shard_row_bounds() const { return shard_rows_; }
  /// Random-side row per permuted edge.
  const int32_t* rnd_perm() const { return rnd_perm_; }
  /// Output row per permuted edge, with bit 31 set on the first edge of the
  /// row's first run (the kernel's store-vs-accumulate cue).
  const int32_t* out_perm() const { return out_perm_; }
  /// Original edge index per permuted edge (a bijection on [0, num_edges)).
  const int32_t* edge_perm() const { return edge_perm_; }
  /// Permuted copy of the weights captured at Build; null when Build got
  /// none.
  const float* w_perm() const { return w_perm_; }
  /// The weight array w_perm() was built from (identity check only — never
  /// dereferenced).
  const float* built_weights() const { return built_weights_; }
  /// Output rows with no edges (must be zeroed by non-accumulating kernels);
  /// num_zero_rows() entries.
  const int32_t* zero_rows() const { return zero_rows_; }
  int64_t num_zero_rows() const { return num_zero_rows_; }

  /// Mask for out_perm() entries: row = v & kRowMask, first-run = v < 0.
  static constexpr int32_t kRowMask = 0x7fffffff;

  /// Upper bound on bytes() for a structure of this shape (assumes every
  /// output row could be zero-degree). Lets engines check device capacity
  /// *before* paying for the build; Build's actual footprint never exceeds
  /// it. Exactly 0 when Build compiles nothing: no edges, or a random side
  /// of one band.
  static int64_t EstimateBytes(int64_t num_out, int64_t num_in,
                               int64_t num_edges, bool has_weights,
                               const EdgeScheduleParams& p = {});

  /// The L2 budget `Build` resolves when params.l2_bytes == 0.
  static int64_t DetectL2Bytes();

 private:
  PoolBuffer slab_;        ///< one pooled allocation holding every array
  int64_t slab_floats_ = 0;

  int64_t num_out_ = 0;
  int64_t num_in_ = 0;
  int64_t num_edges_ = 0;
  int64_t band_rows_ = 0;
  int64_t l2_bytes_ = 0;
  int num_bands_ = 0;
  int num_shards_ = 0;
  int64_t num_zero_rows_ = 0;

  const int64_t* bucket_off_ = nullptr;
  const int64_t* shard_edges_ = nullptr;
  const int64_t* shard_rows_ = nullptr;
  const int32_t* rnd_perm_ = nullptr;
  const int32_t* out_perm_ = nullptr;
  const int32_t* edge_perm_ = nullptr;
  const float* w_perm_ = nullptr;
  const float* built_weights_ = nullptr;
  const int32_t* zero_rows_ = nullptr;
};

}  // namespace kernels
}  // namespace hongtu
