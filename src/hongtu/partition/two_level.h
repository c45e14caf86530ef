/// \file two_level.h
/// \brief Edge-cut 2-level graph partitioning (§4.1) and chunk extraction.
///
/// Level 1: metis_lite splits the graph into `m` partitions (one per device).
/// Level 2: each partition is split into `n` computation-balanced chunks by
/// range-based partitioning over in-edge counts. A chunk owns a disjoint set
/// of destination vertices together with *all* their in-edges, so
/// full-neighbor aggregation (including GAT's neighbor softmax) runs on each
/// chunk independently. The chunk stores a local CSC over its destinations
/// (edges reference positions in the chunk's neighbor set N_ij) and a local
/// CSR mirror used by parallel backward scatter.

#pragma once

#include <cstdint>
#include <vector>

#include "hongtu/common/status.h"
#include "hongtu/graph/graph.h"
#include "hongtu/partition/metis_lite.h"

namespace hongtu {

/// One execution unit G_ij: partition i (device), chunk j (batch position).
struct Chunk {
  int partition_id = 0;
  int chunk_id = 0;

  /// Destination (master) vertices, ascending global ids.
  std::vector<VertexId> dst_vertices;

  /// Neighbor set N_ij: unique global ids of all in-neighbors of
  /// dst_vertices (self-loops guarantee every destination is included).
  std::vector<VertexId> neighbors;

  /// Local CSC: in-edges of local destination d are
  /// nbr_idx[in_offsets[d] .. in_offsets[d+1]), values index `neighbors`.
  std::vector<int64_t> in_offsets;
  std::vector<int32_t> nbr_idx;
  std::vector<float> in_weights;

  /// Local CSR mirror (source-major) for race-free parallel scatter:
  /// out-edges of local source s are dst_idx[src_offsets[s] ..
  /// src_offsets[s+1]) with matching weights.
  std::vector<int64_t> src_offsets;
  std::vector<int32_t> dst_idx;
  std::vector<float> src_weights;
  /// For each CSR entry, the index of the same edge in the CSC arrays
  /// (nbr_idx/in_weights); lets edge-state (e.g. GAT attention) computed in
  /// destination order be consumed in race-free source-major scatters.
  std::vector<int32_t> src_edge_idx;

  /// For each local destination d, the index of its own vertex inside
  /// `neighbors` (valid because of self-loops); -1 if absent.
  std::vector<int32_t> self_idx;

  int64_t num_dst() const { return static_cast<int64_t>(dst_vertices.size()); }
  int64_t num_neighbors() const {
    return static_cast<int64_t>(neighbors.size());
  }
  int64_t num_edges() const { return static_cast<int64_t>(nbr_idx.size()); }
};

/// The complete 2-level partition: chunks[i][j] is scheduled on device i in
/// batch j (chunks in the same batch j run concurrently, §4.1/Fig. 5).
struct TwoLevelPartition {
  int num_partitions = 0;  ///< m
  int num_chunks = 0;      ///< n (per partition)
  std::vector<int32_t> partition_of;  ///< metis assignment per vertex
  std::vector<std::vector<Chunk>> chunks;  ///< [m][n]

  /// Neighbor replication factor alpha = sum |N_ij| / |V| (§2.4, Table 3).
  double ReplicationFactor(int64_t num_vertices) const;
};

struct TwoLevelOptions {
  MetisLiteOptions metis;
};

/// Builds the 2-level partition of `g` into m partitions x n chunks.
Result<TwoLevelPartition> BuildTwoLevelPartition(const Graph& g, int m, int n,
                                                 const TwoLevelOptions& opts = {});

/// Extracts a chunk for an explicit destination set (used by the mini-batch
/// sampler as well). `partition_id`/`chunk_id` are metadata only.
Chunk ExtractChunk(const Graph& g, std::vector<VertexId> dst_vertices,
                   int partition_id, int chunk_id);

namespace internal {

/// ExtractChunk with a caller-owned global->local map, so a caller that
/// extracts many chunks allocates it once. `local_of` has one entry per
/// vertex of `g`, all -1 on entry; they are all -1 again on return.
Chunk ExtractChunk(const Graph& g, std::vector<VertexId> dst_vertices,
                   int partition_id, int chunk_id,
                   std::vector<int32_t>* local_of);

}  // namespace internal

}  // namespace hongtu
