#include "hongtu/partition/two_level.h"

#include <algorithm>

namespace hongtu {

double TwoLevelPartition::ReplicationFactor(int64_t num_vertices) const {
  if (num_vertices == 0) return 0.0;
  int64_t total = 0;
  for (const auto& row : chunks) {
    for (const auto& c : row) total += c.num_neighbors();
  }
  return static_cast<double>(total) / static_cast<double>(num_vertices);
}

namespace internal {

Chunk ExtractChunk(const Graph& g, std::vector<VertexId> dst_vertices,
                   int partition_id, int chunk_id,
                   std::vector<int32_t>* local_of) {
  std::vector<int32_t>& local = *local_of;
  Chunk c;
  c.partition_id = partition_id;
  c.chunk_id = chunk_id;
  std::sort(dst_vertices.begin(), dst_vertices.end());
  c.dst_vertices = std::move(dst_vertices);

  // Collect the unique neighbor set N_ij through the map (0 marks "seen"
  // until the sorted positions are known), then sort only the unique ids.
  for (VertexId v : c.dst_vertices) {
    for (EdgeId e = g.in_offsets()[v]; e < g.in_offsets()[v + 1]; ++e) {
      const VertexId u = g.in_neighbors()[e];
      if (local[u] == -1) {
        local[u] = 0;
        c.neighbors.push_back(u);
      }
    }
  }
  std::sort(c.neighbors.begin(), c.neighbors.end());
  for (size_t s = 0; s < c.neighbors.size(); ++s) {
    local[c.neighbors[s]] = static_cast<int32_t>(s);
  }

  // Local CSC with edges referencing neighbor-set positions.
  c.in_offsets.assign(c.dst_vertices.size() + 1, 0);
  for (size_t d = 0; d < c.dst_vertices.size(); ++d) {
    const VertexId v = c.dst_vertices[d];
    c.in_offsets[d + 1] =
        c.in_offsets[d] + (g.in_offsets()[v + 1] - g.in_offsets()[v]);
  }
  c.nbr_idx.resize(static_cast<size_t>(c.in_offsets.back()));
  c.in_weights.resize(static_cast<size_t>(c.in_offsets.back()));
  for (size_t d = 0; d < c.dst_vertices.size(); ++d) {
    const VertexId v = c.dst_vertices[d];
    int64_t o = c.in_offsets[d];
    for (EdgeId e = g.in_offsets()[v]; e < g.in_offsets()[v + 1]; ++e, ++o) {
      c.nbr_idx[o] = local[g.in_neighbors()[e]];
      c.in_weights[o] = g.in_weights()[e];
    }
  }

  // self_idx: destination's own position in the neighbor space; the map
  // still holds -1 for a destination that is not its own neighbor.
  c.self_idx.resize(c.dst_vertices.size());
  for (size_t d = 0; d < c.dst_vertices.size(); ++d) {
    c.self_idx[d] = local[c.dst_vertices[d]];
  }
  for (VertexId u : c.neighbors) local[u] = -1;

  // Local CSR mirror (source-major) for parallel scatter.
  c.src_offsets.assign(c.neighbors.size() + 1, 0);
  for (int64_t e = 0; e < c.num_edges(); ++e) c.src_offsets[c.nbr_idx[e] + 1]++;
  for (size_t s = 0; s < c.neighbors.size(); ++s) {
    c.src_offsets[s + 1] += c.src_offsets[s];
  }
  c.dst_idx.resize(static_cast<size_t>(c.num_edges()));
  c.src_weights.resize(static_cast<size_t>(c.num_edges()));
  c.src_edge_idx.resize(static_cast<size_t>(c.num_edges()));
  {
    std::vector<int64_t> cur(c.src_offsets.begin(), c.src_offsets.end() - 1);
    for (size_t d = 0; d < c.dst_vertices.size(); ++d) {
      for (int64_t e = c.in_offsets[d]; e < c.in_offsets[d + 1]; ++e) {
        const int32_t s = c.nbr_idx[e];
        c.dst_idx[cur[s]] = static_cast<int32_t>(d);
        c.src_weights[cur[s]] = c.in_weights[e];
        c.src_edge_idx[cur[s]] = static_cast<int32_t>(e);
        ++cur[s];
      }
    }
  }
  return c;
}

}  // namespace internal

Chunk ExtractChunk(const Graph& g, std::vector<VertexId> dst_vertices,
                   int partition_id, int chunk_id) {
  std::vector<int32_t> local_of(static_cast<size_t>(g.num_vertices()), -1);
  return internal::ExtractChunk(g, std::move(dst_vertices), partition_id,
                                chunk_id, &local_of);
}

Result<TwoLevelPartition> BuildTwoLevelPartition(const Graph& g, int m, int n,
                                                 const TwoLevelOptions& opts) {
  if (m <= 0 || n <= 0) {
    return Status::Invalid("BuildTwoLevelPartition: m and n must be positive");
  }
  TwoLevelPartition tl;
  tl.num_partitions = m;
  tl.num_chunks = n;

  HT_ASSIGN_OR_RETURN(PartitionResult metis,
                      MetisLitePartition(g, m, opts.metis));
  tl.partition_of = std::move(metis.part_of);

  // Bucket the vertices by partition in one counting pass; each bucket is
  // ascending (range-based order, Fig. 2/5).
  const int64_t nv = g.num_vertices();
  std::vector<int64_t> bucket(static_cast<size_t>(m) + 1, 0);
  for (int32_t p : tl.partition_of) ++bucket[p + 1];
  for (int i = 0; i < m; ++i) bucket[i + 1] += bucket[i];
  std::vector<VertexId> by_part(static_cast<size_t>(nv));
  {
    std::vector<int64_t> cur(bucket.begin(), bucket.end() - 1);
    for (int64_t v = 0; v < nv; ++v) {
      by_part[cur[tl.partition_of[v]]++] = static_cast<VertexId>(v);
    }
  }

  std::vector<int32_t> local_of(static_cast<size_t>(nv), -1);
  tl.chunks.resize(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    const VertexId* verts = by_part.data() + bucket[i];
    const size_t num_verts = static_cast<size_t>(bucket[i + 1] - bucket[i]);
    // Split into n chunks balanced by in-edge count (computation balance).
    int64_t total_edges = 0;
    for (size_t k = 0; k < num_verts; ++k) total_edges += g.in_degree(verts[k]);
    const double target = static_cast<double>(total_edges) / n;

    tl.chunks[i].reserve(static_cast<size_t>(n));
    size_t pos = 0;
    for (int j = 0; j < n; ++j) {
      std::vector<VertexId> dst;
      int64_t acc = 0;
      const bool last_chunk = (j == n - 1);
      while (pos < num_verts) {
        const size_t remaining_v = num_verts - pos;
        const size_t later_chunks = static_cast<size_t>(n - 1 - j);
        // Leave at least one vertex for every later chunk when possible.
        if (!dst.empty() && remaining_v <= later_chunks) break;
        if (!dst.empty() && !last_chunk && acc >= target) break;
        dst.push_back(verts[pos++]);
        acc += g.in_degree(dst.back());
      }
      tl.chunks[i].push_back(
          internal::ExtractChunk(g, std::move(dst), i, j, &local_of));
    }
  }
  return tl;
}

}  // namespace hongtu
