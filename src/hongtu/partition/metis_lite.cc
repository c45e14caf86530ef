#include "hongtu/partition/metis_lite.h"

#include <algorithm>
#include <numeric>

#include "hongtu/common/random.h"

namespace hongtu {

namespace {

/// Undirected weighted graph used on every level of the multilevel scheme.
struct WorkGraph {
  int64_t n = 0;
  std::vector<int64_t> offsets;
  std::vector<int32_t> nbrs;
  std::vector<int64_t> ewgt;
  std::vector<int64_t> vwgt;
  int64_t total_vwgt = 0;
};

/// Fills a symmetric WorkGraph's rows by transposition. The caller visits
/// source rows u in ascending order and calls Add(x, u, w) for every entry
/// (x, w) of u's unmerged adjacency. Because the graph is symmetric, row x
/// then receives exactly its own neighbors, in ascending order and with the
/// parallel entries of one neighbor adjacent, so merging them is a check of
/// the row's tail: no hashing and no per-row sort. Rows are staged at
/// capacities `cap` (an upper bound on each row's Add calls) and compacted
/// by Finish().
class TransposedRows {
 public:
  TransposedRows(WorkGraph* w, const std::vector<int64_t>& cap) : w_(w) {
    w_->offsets.assign(cap.size() + 1, 0);
    for (size_t x = 0; x < cap.size(); ++x) {
      w_->offsets[x + 1] = w_->offsets[x] + cap[x];
    }
    end_.assign(w_->offsets.begin(), w_->offsets.end() - 1);
    w_->nbrs.resize(static_cast<size_t>(w_->offsets.back()));
    w_->ewgt.resize(static_cast<size_t>(w_->offsets.back()));
  }

  void Add(int32_t x, int32_t u, int64_t weight) {
    int64_t& end = end_[x];
    if (end > w_->offsets[x] && w_->nbrs[end - 1] == u) {
      w_->ewgt[end - 1] += weight;
    } else {
      w_->nbrs[end] = u;
      w_->ewgt[end] = weight;
      ++end;
    }
  }

  /// Packs the rows to their merged lengths. Rows only move left, so the
  /// compaction is in place.
  void Finish() {
    int64_t out = 0;
    for (size_t x = 0; x < end_.size(); ++x) {
      const int64_t begin = w_->offsets[x];
      if (out != begin) {
        std::copy(w_->nbrs.begin() + begin, w_->nbrs.begin() + end_[x],
                  w_->nbrs.begin() + out);
        std::copy(w_->ewgt.begin() + begin, w_->ewgt.begin() + end_[x],
                  w_->ewgt.begin() + out);
      }
      w_->offsets[x] = out;
      out += end_[x] - begin;
    }
    w_->offsets.back() = out;
    w_->nbrs.resize(static_cast<size_t>(out));
    w_->nbrs.shrink_to_fit();
    w_->ewgt.resize(static_cast<size_t>(out));
    w_->ewgt.shrink_to_fit();
  }

 private:
  WorkGraph* w_;
  std::vector<int64_t> end_;
};

/// Builds the undirected working graph from the directed input, merging
/// parallel edges (weight = multiplicity) and dropping self-loops.
WorkGraph BuildWorkGraph(const Graph& g) {
  WorkGraph w;
  w.n = g.num_vertices();
  w.vwgt.assign(static_cast<size_t>(w.n), 1);
  w.total_vwgt = w.n;

  // Row x collects u once per edge u->x and once per edge x->u, so its
  // length before merging is x's non-self degree over both directions.
  std::vector<int64_t> deg(static_cast<size_t>(w.n), 0);
  for (int64_t v = 0; v < w.n; ++v) {
    for (EdgeId e = g.out_offsets()[v]; e < g.out_offsets()[v + 1]; ++e) {
      if (g.out_neighbors()[e] != v) ++deg[v];
    }
    for (EdgeId e = g.in_offsets()[v]; e < g.in_offsets()[v + 1]; ++e) {
      if (g.in_neighbors()[e] != v) ++deg[v];
    }
  }
  TransposedRows rows(&w, deg);
  for (int64_t v = 0; v < w.n; ++v) {
    const int32_t u = static_cast<int32_t>(v);
    for (EdgeId e = g.out_offsets()[v]; e < g.out_offsets()[v + 1]; ++e) {
      const VertexId x = g.out_neighbors()[e];
      if (x != u) rows.Add(x, u, 1);
    }
    for (EdgeId e = g.in_offsets()[v]; e < g.in_offsets()[v + 1]; ++e) {
      const VertexId x = g.in_neighbors()[e];
      if (x != u) rows.Add(x, u, 1);
    }
  }
  rows.Finish();
  return w;
}

/// Heavy-edge matching; returns coarse vertex count and fine->coarse map.
int64_t HeavyEdgeMatching(const WorkGraph& g, Rng* rng,
                          std::vector<int32_t>* coarse_of) {
  const int64_t n = g.n;
  std::vector<int32_t> match(static_cast<size_t>(n), -1);
  std::vector<int32_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  // Random visit order avoids pathological matchings.
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng->NextInt(static_cast<uint64_t>(i) + 1)]);
  }
  for (int32_t v : order) {
    if (match[v] != -1) continue;
    int32_t best = -1;
    int64_t best_w = -1;
    for (int64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const int32_t u = g.nbrs[e];
      if (u == v || match[u] != -1) continue;
      if (g.ewgt[e] > best_w) {
        best_w = g.ewgt[e];
        best = u;
      }
    }
    if (best != -1) {
      match[v] = best;
      match[best] = v;
    } else {
      match[v] = v;
    }
  }
  coarse_of->assign(static_cast<size_t>(n), -1);
  int64_t nc = 0;
  for (int64_t v = 0; v < n; ++v) {
    if ((*coarse_of)[v] != -1) continue;
    const int32_t m = match[v];
    (*coarse_of)[v] = static_cast<int32_t>(nc);
    if (m != static_cast<int32_t>(v)) (*coarse_of)[m] = static_cast<int32_t>(nc);
    ++nc;
  }
  return nc;
}

/// Contracts g under the fine->coarse map.
WorkGraph Contract(const WorkGraph& g, const std::vector<int32_t>& coarse_of,
                   int64_t nc) {
  WorkGraph c;
  c.n = nc;
  c.vwgt.assign(static_cast<size_t>(nc), 0);
  // A coarse row receives at most its fine members' row lengths.
  std::vector<int64_t> cap(static_cast<size_t>(nc), 0);
  for (int64_t v = 0; v < g.n; ++v) {
    c.vwgt[coarse_of[v]] += g.vwgt[v];
    cap[coarse_of[v]] += g.offsets[v + 1] - g.offsets[v];
  }
  c.total_vwgt = g.total_vwgt;

  // Group fine vertices by coarse id.
  std::vector<int32_t> head(static_cast<size_t>(nc), -1);
  std::vector<int32_t> next(static_cast<size_t>(g.n), -1);
  for (int64_t v = g.n - 1; v >= 0; --v) {
    const int32_t cv = coarse_of[v];
    next[v] = head[cv];
    head[cv] = static_cast<int32_t>(v);
  }
  TransposedRows rows(&c, cap);
  for (int64_t cu = 0; cu < nc; ++cu) {
    const int32_t u = static_cast<int32_t>(cu);
    for (int32_t v = head[cu]; v != -1; v = next[v]) {
      for (int64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        const int32_t cx = coarse_of[g.nbrs[e]];
        if (cx != u) rows.Add(cx, u, g.ewgt[e]);
      }
    }
  }
  rows.Finish();
  return c;
}

/// Greedy graph growing (GGGP-style) on the coarsest graph: each part grows
/// by repeatedly absorbing the unassigned vertex with the highest
/// connectivity into the part. O(k * n^2) but the coarsest graph is small.
std::vector<int32_t> InitialPartition(const WorkGraph& g, int k, Rng* rng) {
  std::vector<int32_t> part(static_cast<size_t>(g.n), -1);
  const int64_t target = (g.total_vwgt + k - 1) / k;
  std::vector<int64_t> weight(static_cast<size_t>(k), 0);
  // gain[v] = edge weight from v into the part currently growing.
  std::vector<int64_t> gain(static_cast<size_t>(g.n), 0);
  int64_t assigned = 0;

  for (int p = 0; p < k && assigned < g.n; ++p) {
    std::fill(gain.begin(), gain.end(), 0);
    // Seed: random unassigned vertex.
    int32_t seed = -1;
    for (int tries = 0; tries < 64 && seed == -1; ++tries) {
      const int32_t cand = static_cast<int32_t>(rng->NextInt(g.n));
      if (part[cand] == -1) seed = cand;
    }
    for (int64_t v = 0; v < g.n && seed == -1; ++v) {
      if (part[v] == -1) seed = static_cast<int32_t>(v);
    }
    if (seed == -1) break;

    int32_t next = seed;
    while (next != -1 && weight[p] < target) {
      const int32_t v = next;
      part[v] = p;
      weight[p] += g.vwgt[v];
      ++assigned;
      for (int64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        const int32_t u = g.nbrs[e];
        if (part[u] == -1) gain[u] += g.ewgt[e];
      }
      // Pick the unassigned vertex with the highest gain; fall back to any
      // unassigned vertex when the frontier is exhausted (disconnected).
      next = -1;
      int64_t best_gain = 0;
      for (int64_t u = 0; u < g.n; ++u) {
        if (part[u] == -1 && gain[u] > best_gain) {
          best_gain = gain[u];
          next = static_cast<int32_t>(u);
        }
      }
      if (next == -1 && p == k - 1) {
        for (int64_t u = 0; u < g.n && next == -1; ++u) {
          if (part[u] == -1) next = static_cast<int32_t>(u);
        }
      }
    }
  }
  // Any stragglers go to the lightest part.
  for (int64_t v = 0; v < g.n; ++v) {
    if (part[v] == -1) {
      const int p = static_cast<int>(
          std::min_element(weight.begin(), weight.end()) - weight.begin());
      part[v] = p;
      weight[p] += g.vwgt[v];
    }
  }
  return part;
}

/// One boundary-refinement sweep (greedy FM without rollback). Returns the
/// number of vertices moved.
int64_t RefinePass(const WorkGraph& g, int k, int64_t max_part_weight,
                   std::vector<int32_t>* part,
                   std::vector<int64_t>* part_weight) {
  int64_t moved = 0;
  std::vector<int64_t> gain_to(static_cast<size_t>(k), 0);
  std::vector<int32_t> touched;
  for (int64_t v = 0; v < g.n; ++v) {
    const int32_t pv = (*part)[v];
    touched.clear();
    bool boundary = false;
    for (int64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const int32_t pu = (*part)[g.nbrs[e]];
      if (gain_to[pu] == 0) touched.push_back(pu);
      gain_to[pu] += g.ewgt[e];
      if (pu != pv) boundary = true;
    }
    if (boundary) {
      const int64_t internal = gain_to[pv];
      int32_t best = pv;
      int64_t best_gain = 0;
      for (int32_t p : touched) {
        if (p == pv) continue;
        const int64_t gain = gain_to[p] - internal;
        if (gain > best_gain &&
            (*part_weight)[p] + g.vwgt[v] <= max_part_weight) {
          best_gain = gain;
          best = p;
        }
      }
      if (best != pv) {
        (*part_weight)[pv] -= g.vwgt[v];
        (*part_weight)[best] += g.vwgt[v];
        (*part)[v] = best;
        ++moved;
      }
    }
    for (int32_t p : touched) gain_to[p] = 0;
  }
  return moved;
}

}  // namespace

int64_t ComputeEdgeCut(const Graph& g, const std::vector<int32_t>& part_of) {
  int64_t cut = 0;
  for (int64_t v = 0; v < g.num_vertices(); ++v) {
    for (EdgeId e = g.out_offsets()[v]; e < g.out_offsets()[v + 1]; ++e) {
      const VertexId u = g.out_neighbors()[e];
      if (u != v && part_of[u] != part_of[v]) ++cut;
    }
  }
  return cut;
}

Result<PartitionResult> MetisLitePartition(const Graph& g, int num_parts,
                                           const MetisLiteOptions& opts) {
  if (num_parts <= 0) {
    return Status::Invalid("MetisLitePartition: num_parts must be positive");
  }
  if (g.num_vertices() == 0) {
    return Status::Invalid("MetisLitePartition: empty graph");
  }
  PartitionResult result;
  result.num_parts = num_parts;
  if (num_parts == 1) {
    result.part_of.assign(static_cast<size_t>(g.num_vertices()), 0);
    result.edge_cut = 0;
    return result;
  }

  Rng rng(opts.seed);
  std::vector<WorkGraph> levels;
  std::vector<std::vector<int32_t>> maps;  // fine->coarse per level
  levels.push_back(BuildWorkGraph(g));

  const int64_t stop_n =
      std::max<int64_t>(opts.coarsen_until,
                        static_cast<int64_t>(num_parts) * 8);
  while (levels.back().n > stop_n) {
    std::vector<int32_t> coarse_of;
    const int64_t nc = HeavyEdgeMatching(levels.back(), &rng, &coarse_of);
    if (nc >= levels.back().n * 9 / 10) break;  // diminishing returns
    WorkGraph c = Contract(levels.back(), coarse_of, nc);
    maps.push_back(std::move(coarse_of));
    levels.push_back(std::move(c));
  }

  // Initial partition on the coarsest level: multi-start greedy growing,
  // keep the lowest-cut candidate (the coarsest graph is small, so extra
  // starts are nearly free).
  const auto coarse_cut = [&](const WorkGraph& wg,
                              const std::vector<int32_t>& p) {
    int64_t cut = 0;
    for (int64_t v = 0; v < wg.n; ++v) {
      for (int64_t e = wg.offsets[v]; e < wg.offsets[v + 1]; ++e) {
        if (p[wg.nbrs[e]] != p[v]) cut += wg.ewgt[e];
      }
    }
    return cut / 2;
  };
  std::vector<int32_t> part;
  int64_t best_cut = -1;
  for (int start = 0; start < 4; ++start) {
    std::vector<int32_t> cand =
        InitialPartition(levels.back(), num_parts, &rng);
    const int64_t cut = coarse_cut(levels.back(), cand);
    if (best_cut < 0 || cut < best_cut) {
      best_cut = cut;
      part = std::move(cand);
    }
  }

  // Uncoarsen with refinement at every level.
  for (int level = static_cast<int>(levels.size()) - 1; level >= 0; --level) {
    WorkGraph& wg = levels[level];
    std::vector<int64_t> weight(static_cast<size_t>(num_parts), 0);
    for (int64_t v = 0; v < wg.n; ++v) weight[part[v]] += wg.vwgt[v];
    const int64_t max_w = static_cast<int64_t>(
        (1.0 + opts.imbalance) * static_cast<double>(wg.total_vwgt) /
        num_parts) + 1;
    for (int pass = 0; pass < opts.refine_passes; ++pass) {
      if (RefinePass(wg, num_parts, max_w, &part, &weight) == 0) break;
    }
    if (level > 0) {
      // Project to the finer level.
      const std::vector<int32_t>& coarse_of = maps[level - 1];
      std::vector<int32_t> fine_part(coarse_of.size());
      for (size_t v = 0; v < coarse_of.size(); ++v) {
        fine_part[v] = part[coarse_of[v]];
      }
      part = std::move(fine_part);
    }
  }

  result.part_of = std::move(part);
  result.edge_cut = ComputeEdgeCut(g, result.part_of);
  return result;
}

}  // namespace hongtu
