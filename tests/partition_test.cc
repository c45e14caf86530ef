// Tests for metis_lite and 2-level partitioning (§4.1 invariants).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <tuple>

#include "hongtu/common/crc32c.h"
#include "hongtu/common/random.h"
#include "hongtu/graph/builder.h"
#include "hongtu/graph/datasets.h"
#include "hongtu/partition/metis_lite.h"
#include "hongtu/partition/two_level.h"

namespace hongtu {
namespace {

Dataset SmallWeb() {
  auto r = LoadDatasetScaled("it-2004", 0.05);
  EXPECT_TRUE(r.ok());
  return r.MoveValueUnsafe();
}

TEST(MetisLite, SinglePartIsTrivial) {
  Dataset ds = SmallWeb();
  auto r = MetisLitePartition(ds.graph, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().edge_cut, 0);
  for (int32_t p : r.ValueOrDie().part_of) EXPECT_EQ(p, 0);
}

TEST(MetisLite, RejectsBadArgs) {
  Dataset ds = SmallWeb();
  EXPECT_TRUE(MetisLitePartition(ds.graph, 0).status().IsInvalid());
  Graph empty;
  EXPECT_TRUE(MetisLitePartition(empty, 2).status().IsInvalid());
}

TEST(MetisLite, CutBeatsRandomAssignment) {
  Dataset ds = SmallWeb();
  auto r = MetisLitePartition(ds.graph, 4);
  ASSERT_TRUE(r.ok());
  // Random 4-way assignment cuts ~75% of edges; metis-lite should do far
  // better on a local web graph.
  std::vector<int32_t> random_part(ds.graph.num_vertices());
  for (size_t v = 0; v < random_part.size(); ++v) {
    random_part[v] = static_cast<int32_t>(v % 4);
  }
  const int64_t random_cut = ComputeEdgeCut(ds.graph, random_part);
  EXPECT_LT(r.ValueOrDie().edge_cut, random_cut / 3);
}

class MetisParamTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(MetisParamTest, BalancedCover) {
  const auto& [name, k] = GetParam();
  auto dsr = LoadDatasetScaled(name, 0.05);
  ASSERT_TRUE(dsr.ok());
  const Dataset& ds = dsr.ValueOrDie();
  auto r = MetisLitePartition(ds.graph, k);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const PartitionResult& pr = r.ValueOrDie();
  ASSERT_EQ(static_cast<int64_t>(pr.part_of.size()), ds.graph.num_vertices());
  std::vector<int64_t> count(k, 0);
  for (int32_t p : pr.part_of) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, k);
    count[p]++;
  }
  const int64_t avg = ds.graph.num_vertices() / k;
  for (int64_t c : count) {
    EXPECT_GT(c, 0);
    EXPECT_LT(c, 2 * avg + 16) << "imbalanced partition";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MetisParamTest,
    ::testing::Combine(::testing::Values("reddit", "it-2004", "friendster",
                                         "ogbn-paper"),
                       ::testing::Values(2, 4, 8)));

TEST(MetisLite, DeterministicForFixedSeed) {
  Dataset ds = SmallWeb();
  MetisLiteOptions o;
  o.seed = 123;
  auto a = MetisLitePartition(ds.graph, 4, o);
  auto b = MetisLitePartition(ds.graph, 4, o);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.ValueOrDie().part_of, b.ValueOrDie().part_of);
  EXPECT_EQ(a.ValueOrDie().edge_cut, b.ValueOrDie().edge_cut);
}

template <typename T>
uint32_t CrcOf(const std::vector<T>& v, uint32_t crc = 0) {
  return Crc32c(v.data(), v.size() * sizeof(T), crc);
}

// A multigraph: every edge is repeated one to three times, some repeats run
// both ways, some vertices carry explicit self-loops and every 13th vertex
// is isolated. Coarsening therefore merges parallel edges of weight > 1,
// which the deduplicated datasets never produce.
Graph Multigraph() {
  constexpr int64_t kN = 3000;
  Rng rng(5);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (int64_t v = 0; v < kN; ++v) {
    if (v % 13 == 0) continue;
    for (int k = 0; k < 4; ++k) {
      const int64_t u = (v + 1 + static_cast<int64_t>(rng.NextInt(40))) % kN;
      if (u % 13 == 0) continue;
      const int copies = 1 + static_cast<int>(rng.NextInt(3));
      const auto a = static_cast<VertexId>(v);
      const auto b = static_cast<VertexId>(u);
      for (int c = 0; c < copies; ++c) {
        if (rng.NextInt(2) == 0) {
          edges.emplace_back(a, b);
        } else {
          edges.emplace_back(b, a);
        }
      }
    }
    if (v % 7 == 0) {
      edges.emplace_back(static_cast<VertexId>(v), static_cast<VertexId>(v));
    }
  }
  GraphBuilderOptions o;
  o.deduplicate = false;
  o.add_self_loops = false;
  auto r = GraphBuilder(o).Build(kN, std::move(edges));
  EXPECT_TRUE(r.ok());
  return r.MoveValueUnsafe();
}

TEST(MetisLite, MultigraphPartitionIsPinned) {
  const Graph g = Multigraph();
  ASSERT_GT(g.num_edges(), 0);
  // Pinned part_of words: any change to coarsening, matching or refinement
  // order shows up here.
  const std::vector<std::pair<int, uint32_t>> pinned = {{2, 0x5fcf3b65u},
                                                        {4, 0xc12574b7u}};
  for (const auto& [k, want] : pinned) {
    auto r = MetisLitePartition(g, k);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const PartitionResult& pr = r.ValueOrDie();
    std::vector<int64_t> count(k, 0);
    for (int32_t p : pr.part_of) count[p]++;
    for (int64_t c : count) EXPECT_GT(c, 0);
    EXPECT_EQ(CrcOf(pr.part_of), want) << "k=" << k;
  }
}

struct GoldenCase {
  const char* dataset;
  double scale;
  uint64_t seed;
  int m;
  int n;
  uint32_t part_of_crc;
  uint32_t structure_crc;
};

// The 2-level partition is the input to every digest downstream (dedup
// plans, schedules, trained weights). These words pin it bitwise: the
// METIS assignment, then that word chained over every integer array of
// every chunk in [i][j] order. Float weights are copied straight from the
// graph and left out.
TEST(TwoLevel, GoldenPartitionCrcs) {
  const GoldenCase cases[] = {
      {"reddit", 1.0, 1, 4, 4, 0xbdf71870u, 0x3fcf7358u},
      {"reddit", 1.0, 2, 4, 4, 0x8447c7d3u, 0x9287ec54u},
      {"friendster", 0.1, 1, 4, 8, 0x3a1b80abu, 0xb859e235u},
      {"friendster", 0.1, 2, 4, 8, 0x450861e2u, 0xa1224b97u},
      {"it-2004", 0.1, 1, 1, 4, 0x6fb0f5f1u, 0x8ec7a7c8u},
      {"it-2004", 0.1, 2, 1, 4, 0x6fb0f5f1u, 0x3944fae0u},
  };
  for (const GoldenCase& gc : cases) {
    SCOPED_TRACE(std::string(gc.dataset) + " seed " + std::to_string(gc.seed));
    auto dsr = LoadDatasetScaled(gc.dataset, gc.scale, gc.seed);
    ASSERT_TRUE(dsr.ok());
    TwoLevelOptions opts;
    opts.metis.seed = 7;
    auto r = BuildTwoLevelPartition(dsr.ValueOrDie().graph, gc.m, gc.n, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const TwoLevelPartition& tl = r.ValueOrDie();
    uint32_t structure = CrcOf(tl.partition_of);
    for (const auto& row : tl.chunks) {
      for (const Chunk& c : row) {
        structure = CrcOf(c.dst_vertices, structure);
        structure = CrcOf(c.neighbors, structure);
        structure = CrcOf(c.in_offsets, structure);
        structure = CrcOf(c.nbr_idx, structure);
        structure = CrcOf(c.src_offsets, structure);
        structure = CrcOf(c.dst_idx, structure);
        structure = CrcOf(c.src_edge_idx, structure);
        structure = CrcOf(c.self_idx, structure);
      }
    }
    EXPECT_EQ(CrcOf(tl.partition_of), gc.part_of_crc);
    EXPECT_EQ(structure, gc.structure_crc);
  }
}

TEST(MetisLite, MoreRefinementNeverWorsensCut) {
  Dataset ds = SmallWeb();
  MetisLiteOptions few;
  few.refine_passes = 1;
  MetisLiteOptions many;
  many.refine_passes = 12;
  auto a = MetisLitePartition(ds.graph, 4, few);
  auto b = MetisLitePartition(ds.graph, 4, many);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LE(b.ValueOrDie().edge_cut, a.ValueOrDie().edge_cut);
}

TEST(TwoLevel, RejectsBadArgs) {
  Dataset ds = SmallWeb();
  EXPECT_TRUE(BuildTwoLevelPartition(ds.graph, 0, 1).status().IsInvalid());
  EXPECT_TRUE(BuildTwoLevelPartition(ds.graph, 1, 0).status().IsInvalid());
}

class TwoLevelParamTest
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(TwoLevelParamTest, ChunksPartitionTheGraph) {
  const auto& [name, m, n] = GetParam();
  auto dsr = LoadDatasetScaled(name, 0.05);
  ASSERT_TRUE(dsr.ok());
  const Dataset& ds = dsr.ValueOrDie();
  auto r = BuildTwoLevelPartition(ds.graph, m, n);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const TwoLevelPartition& tl = r.ValueOrDie();
  ASSERT_EQ(tl.num_partitions, m);
  ASSERT_EQ(tl.num_chunks, n);

  // Destination sets are disjoint and cover V; every destination's full
  // in-edge set is present (full-neighbor aggregation, §4.1).
  std::vector<int> seen(ds.graph.num_vertices(), 0);
  int64_t total_edges = 0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const Chunk& c = tl.chunks[i][j];
      for (size_t d = 0; d < c.dst_vertices.size(); ++d) {
        const VertexId v = c.dst_vertices[d];
        seen[v]++;
        EXPECT_EQ(tl.partition_of[v], i);
        EXPECT_EQ(c.in_offsets[d + 1] - c.in_offsets[d],
                  ds.graph.in_degree(v));
      }
      total_edges += c.num_edges();
    }
  }
  for (int s : seen) EXPECT_EQ(s, 1);
  EXPECT_EQ(total_edges, ds.graph.num_edges());
}

TEST_P(TwoLevelParamTest, ChunkLocalStructureConsistent) {
  const auto& [name, m, n] = GetParam();
  auto dsr = LoadDatasetScaled(name, 0.05);
  ASSERT_TRUE(dsr.ok());
  const Dataset& ds = dsr.ValueOrDie();
  auto r = BuildTwoLevelPartition(ds.graph, m, n);
  ASSERT_TRUE(r.ok());
  for (const auto& row : r.ValueOrDie().chunks) {
    for (const Chunk& c : row) {
      // Neighbor set is sorted and unique.
      EXPECT_TRUE(std::is_sorted(c.neighbors.begin(), c.neighbors.end()));
      EXPECT_EQ(std::adjacent_find(c.neighbors.begin(), c.neighbors.end()),
                c.neighbors.end());
      // Every edge references a valid neighbor slot; weights match graph.
      for (int64_t e = 0; e < c.num_edges(); ++e) {
        ASSERT_GE(c.nbr_idx[e], 0);
        ASSERT_LT(c.nbr_idx[e], c.num_neighbors());
      }
      // self_idx resolves each destination to itself.
      for (size_t d = 0; d < c.dst_vertices.size(); ++d) {
        ASSERT_GE(c.self_idx[d], 0);
        EXPECT_EQ(c.neighbors[c.self_idx[d]], c.dst_vertices[d]);
      }
      // CSR mirror holds the same edge multiset.
      EXPECT_EQ(static_cast<int64_t>(c.dst_idx.size()), c.num_edges());
      std::multiset<std::pair<int32_t, int32_t>> csc, csr;
      for (size_t d = 0; d < c.dst_vertices.size(); ++d) {
        for (int64_t e = c.in_offsets[d]; e < c.in_offsets[d + 1]; ++e) {
          csc.insert({c.nbr_idx[e], static_cast<int32_t>(d)});
        }
      }
      for (size_t s = 0; s < c.neighbors.size(); ++s) {
        for (int64_t e = c.src_offsets[s]; e < c.src_offsets[s + 1]; ++e) {
          csr.insert({static_cast<int32_t>(s), c.dst_idx[e]});
          // src_edge_idx maps to a CSC edge with the same endpoints.
          const int32_t ce = c.src_edge_idx[e];
          EXPECT_EQ(c.nbr_idx[ce], static_cast<int32_t>(s));
          EXPECT_EQ(c.in_weights[ce], c.src_weights[e]);
        }
      }
      EXPECT_EQ(csc, csr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TwoLevelParamTest,
    ::testing::Combine(::testing::Values("it-2004", "friendster"),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(1, 3, 8)));

TEST(ReplicationFactor, GrowsWithPartitionCount) {
  // Table 3's headline trend: alpha increases monotonically with the number
  // of partitions, and the well-mixed social graph replicates far more than
  // the local web graph.
  auto web = LoadDatasetScaled("it-2004", 0.1);
  auto soc = LoadDatasetScaled("friendster", 0.1);
  ASSERT_TRUE(web.ok() && soc.ok());
  double prev_web = 0, prev_soc = 0;
  for (int parts : {2, 8, 32}) {
    auto w = BuildTwoLevelPartition(web.ValueOrDie().graph, 1, parts);
    auto s = BuildTwoLevelPartition(soc.ValueOrDie().graph, 1, parts);
    ASSERT_TRUE(w.ok() && s.ok());
    const double aw = w.ValueOrDie().ReplicationFactor(
        web.ValueOrDie().graph.num_vertices());
    const double as = s.ValueOrDie().ReplicationFactor(
        soc.ValueOrDie().graph.num_vertices());
    EXPECT_GE(aw, prev_web);
    EXPECT_GE(as, prev_soc);
    EXPECT_GE(aw, 1.0);
    prev_web = aw;
    prev_soc = as;
  }
  EXPECT_GT(prev_soc, prev_web);  // friendster-like >> it-2004-like
}

// Naive chunk extraction: sort every in-edge source, then binary-search each
// edge's position. The production path must agree with it exactly.
Chunk ReferenceChunk(const Graph& g, std::vector<VertexId> dst) {
  Chunk c;
  std::sort(dst.begin(), dst.end());
  c.dst_vertices = dst;
  for (VertexId v : dst) {
    for (EdgeId e = g.in_offsets()[v]; e < g.in_offsets()[v + 1]; ++e) {
      c.neighbors.push_back(g.in_neighbors()[e]);
    }
  }
  std::sort(c.neighbors.begin(), c.neighbors.end());
  c.neighbors.erase(std::unique(c.neighbors.begin(), c.neighbors.end()),
                    c.neighbors.end());
  const auto find = [&](VertexId u) {
    const auto it = std::lower_bound(c.neighbors.begin(), c.neighbors.end(), u);
    return (it != c.neighbors.end() && *it == u)
               ? static_cast<int32_t>(it - c.neighbors.begin())
               : -1;
  };
  c.in_offsets.push_back(0);
  for (VertexId v : dst) {
    for (EdgeId e = g.in_offsets()[v]; e < g.in_offsets()[v + 1]; ++e) {
      c.nbr_idx.push_back(find(g.in_neighbors()[e]));
      c.in_weights.push_back(g.in_weights()[e]);
    }
    c.in_offsets.push_back(static_cast<int64_t>(c.nbr_idx.size()));
    c.self_idx.push_back(find(v));
  }
  // Source-major mirror: stable by destination, then by CSC position.
  c.src_offsets.assign(c.neighbors.size() + 1, 0);
  for (size_t s = 0; s < c.neighbors.size(); ++s) {
    for (size_t d = 0; d < dst.size(); ++d) {
      for (int64_t e = c.in_offsets[d]; e < c.in_offsets[d + 1]; ++e) {
        if (c.nbr_idx[e] != static_cast<int32_t>(s)) continue;
        c.dst_idx.push_back(static_cast<int32_t>(d));
        c.src_weights.push_back(c.in_weights[e]);
        c.src_edge_idx.push_back(static_cast<int32_t>(e));
      }
    }
    c.src_offsets[s + 1] = static_cast<int64_t>(c.dst_idx.size());
  }
  return c;
}

void ExpectSameChunk(const Chunk& got, const Chunk& want) {
  EXPECT_EQ(got.dst_vertices, want.dst_vertices);
  EXPECT_EQ(got.neighbors, want.neighbors);
  EXPECT_EQ(got.in_offsets, want.in_offsets);
  EXPECT_EQ(got.nbr_idx, want.nbr_idx);
  EXPECT_EQ(got.in_weights, want.in_weights);
  EXPECT_EQ(got.src_offsets, want.src_offsets);
  EXPECT_EQ(got.dst_idx, want.dst_idx);
  EXPECT_EQ(got.src_weights, want.src_weights);
  EXPECT_EQ(got.src_edge_idx, want.src_edge_idx);
  EXPECT_EQ(got.self_idx, want.self_idx);
}

// Random graph on two halves [0, n/2) and [n/2, n) with no edge between
// them, so destination sets drawn from different halves have disjoint
// neighbor sets.
Graph TwoHalves(int64_t n, bool self_loops, Rng* rng) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  const int64_t half = n / 2;
  for (int64_t k = 0; k < 3 * n; ++k) {
    const int64_t base = rng->NextInt(2) == 0 ? 0 : half;
    const int64_t span = base == 0 ? half : n - half;
    edges.emplace_back(static_cast<VertexId>(base + rng->NextInt(span)),
                       static_cast<VertexId>(base + rng->NextInt(span)));
  }
  GraphBuilderOptions o;
  o.add_self_loops = self_loops;
  auto r = GraphBuilder(o).Build(n, std::move(edges));
  EXPECT_TRUE(r.ok());
  return r.MoveValueUnsafe();
}

std::vector<VertexId> RandomSubset(int64_t lo, int64_t hi, Rng* rng) {
  std::vector<VertexId> out;
  for (int64_t v = hi - 1; v >= lo; --v) {  // unsorted on purpose
    if (rng->NextInt(3) == 0) out.push_back(static_cast<VertexId>(v));
  }
  return out;
}

TEST(ExtractChunk, MatchesReferenceOnRandomGraphs) {
  Rng rng(3);
  for (bool self_loops : {true, false}) {
    for (int trial = 0; trial < 6; ++trial) {
      SCOPED_TRACE(std::string(self_loops ? "self-loops" : "no self-loops") +
                   " trial " + std::to_string(trial));
      const int64_t n = 20 + static_cast<int64_t>(rng.NextInt(60));
      const Graph g = TwoHalves(n, self_loops, &rng);
      const int64_t half = n / 2;
      // Successive extractions through one shared map: whole graph, each
      // half (disjoint neighbor sets), random overlapping subsets, and an
      // empty set. Each must equal both the reference and a fresh
      // extraction, so a stale map entry from an earlier chunk shows.
      std::vector<std::vector<VertexId>> dsts;
      std::vector<VertexId> all(static_cast<size_t>(n));
      std::iota(all.begin(), all.end(), 0);
      dsts.push_back(all);
      dsts.push_back(RandomSubset(0, half, &rng));
      dsts.push_back(RandomSubset(half, n, &rng));
      dsts.push_back(RandomSubset(0, n, &rng));
      dsts.push_back(RandomSubset(0, n, &rng));
      dsts.push_back({});
      dsts.push_back(RandomSubset(half / 2, n, &rng));
      std::vector<int32_t> local_of(static_cast<size_t>(n), -1);
      int64_t absent_self = 0;
      for (size_t k = 0; k < dsts.size(); ++k) {
        SCOPED_TRACE("extraction " + std::to_string(k));
        const Chunk want = ReferenceChunk(g, dsts[k]);
        const Chunk shared =
            internal::ExtractChunk(g, dsts[k], 1, 2, &local_of);
        EXPECT_EQ(shared.partition_id, 1);
        EXPECT_EQ(shared.chunk_id, 2);
        ExpectSameChunk(shared, want);
        absent_self += std::count(shared.self_idx.begin(),
                                  shared.self_idx.end(), -1);
        ExpectSameChunk(ExtractChunk(g, dsts[k], 1, 2), want);
        EXPECT_EQ(std::count(local_of.begin(), local_of.end(), -1), n)
            << "map not reset";
      }
      // Without self-loops some destinations are not their own neighbors,
      // so the self_idx = -1 case is exercised.
      if (self_loops) {
        EXPECT_EQ(absent_self, 0);
      } else {
        EXPECT_GT(absent_self, 0);
      }
    }
  }
}

TEST(ExtractChunk, EmptyDestinationSet) {
  Dataset ds = SmallWeb();
  Chunk c = ExtractChunk(ds.graph, {}, 0, 0);
  EXPECT_EQ(c.num_dst(), 0);
  EXPECT_EQ(c.num_edges(), 0);
  EXPECT_EQ(c.num_neighbors(), 0);
}

TEST(ExtractChunk, FullGraphIsIdentity) {
  Dataset ds = SmallWeb();
  std::vector<VertexId> all(ds.graph.num_vertices());
  std::iota(all.begin(), all.end(), 0);
  Chunk c = ExtractChunk(ds.graph, std::move(all), 0, 0);
  // Self-loops make every vertex a source: the neighbor set is the identity.
  ASSERT_EQ(c.num_neighbors(), ds.graph.num_vertices());
  for (int64_t v = 0; v < c.num_neighbors(); ++v) {
    EXPECT_EQ(c.neighbors[v], v);
    EXPECT_EQ(c.self_idx[v], v);
  }
  EXPECT_EQ(c.num_edges(), ds.graph.num_edges());
}

}  // namespace
}  // namespace hongtu
