#include "hongtu/gnn/layer.h"

#include <vector>

#include "hongtu/kernels/backend.h"
#include "hongtu/kernels/spmm.h"

namespace hongtu {

LocalGraph LocalGraph::FromChunk(const Chunk& c) {
  LocalGraph g;
  g.num_dst = c.num_dst();
  g.num_src = c.num_neighbors();
  g.num_edges = c.num_edges();
  g.in_offsets = c.in_offsets.data();
  g.nbr_idx = c.nbr_idx.data();
  g.in_weights = c.in_weights.data();
  g.src_offsets = c.src_offsets.data();
  g.dst_idx = c.dst_idx.data();
  g.src_weights = c.src_weights.data();
  g.src_edge_idx = c.src_edge_idx.data();
  g.self_idx = c.self_idx.data();
  return g;
}

LocalGraph LocalGraph::FromChunk(const Chunk& c, const ChunkSchedules* s) {
  LocalGraph g = FromChunk(c);
  if (s != nullptr) {
    g.gather_sched = &s->gather;
    g.scatter_sched = &s->scatter;
  }
  return g;
}

ChunkSchedules ChunkSchedules::Build(const Chunk& c,
                                     const kernels::EdgeScheduleParams& p) {
  ChunkSchedules s;
  const int64_t nd = c.num_dst();
  const int64_t ns = c.num_neighbors();
  const int bg = kernels::EdgeSchedule::NumBands(ns, p);
  const int bs = kernels::EdgeSchedule::NumBands(nd, p);
  if (c.num_edges() > 0 && bg >= 2 && bs >= 2) {
    // One walk of the CSC edges fills *both* directions' (shard, band)
    // histograms: the gather direction's own counts, and — through the
    // scatter shard map over sources — the CSR mirror's counts. Bucket
    // counts are order-independent, so handing them to Build (which then
    // skips its counting pass) yields byte-identical schedules while the
    // CSR is walked once (placement) instead of twice.
    const int S = std::max(p.num_shards, 1);
    const int64_t band_rows = kernels::EdgeSchedule::ResolveBandRows(p);
    std::vector<int64_t> g_bounds(static_cast<size_t>(S) + 1);
    std::vector<int64_t> s_bounds(static_cast<size_t>(S) + 1);
    kernels::EdgeSchedule::ShardRowBounds(nd, c.in_offsets.data(), p,
                                          g_bounds.data());
    kernels::EdgeSchedule::ShardRowBounds(ns, c.src_offsets.data(), p,
                                          s_bounds.data());
    std::vector<int32_t> src_shard(static_cast<size_t>(ns));
    for (int t = 0; t < S; ++t) {
      for (int64_t v = s_bounds[t]; v < s_bounds[t + 1]; ++v) {
        src_shard[static_cast<size_t>(v)] = t;
      }
    }
    std::vector<int64_t> gather_counts(static_cast<size_t>(S) * bg, 0);
    std::vector<int64_t> scatter_counts(static_cast<size_t>(S) * bs, 0);
    for (int t = 0; t < S; ++t) {
      for (int64_t d = g_bounds[t]; d < g_bounds[t + 1]; ++d) {
        for (int64_t e = c.in_offsets[d]; e < c.in_offsets[d + 1]; ++e) {
          const int32_t src = c.nbr_idx[e];
          ++gather_counts[static_cast<size_t>(t) * bg + src / band_rows];
          ++scatter_counts[static_cast<size_t>(src_shard[src]) * bs +
                           d / band_rows];
        }
      }
    }
    s.gather = kernels::EdgeSchedule::Build(
        nd, c.in_offsets.data(), c.nbr_idx.data(), c.in_weights.data(), ns, p,
        gather_counts.data());
    s.scatter = kernels::EdgeSchedule::Build(
        ns, c.src_offsets.data(), c.dst_idx.data(), c.src_weights.data(), nd,
        p, scatter_counts.data());
    return s;
  }
  // At most one direction compiles (a single-band one returns slab-less
  // before any edge walk), so there is no second walk to fuse away.
  s.gather = kernels::EdgeSchedule::Build(nd, c.in_offsets.data(),
                                          c.nbr_idx.data(),
                                          c.in_weights.data(), ns, p);
  s.scatter = kernels::EdgeSchedule::Build(ns, c.src_offsets.data(),
                                           c.dst_idx.data(),
                                           c.src_weights.data(), nd, p);
  return s;
}

int64_t ChunkSchedules::EstimateBytes(const Chunk& c,
                                      const kernels::EdgeScheduleParams& p) {
  return kernels::EdgeSchedule::EstimateBytes(c.num_dst(), c.num_neighbors(),
                                              c.num_edges(),
                                              /*has_weights=*/true, p) +
         kernels::EdgeSchedule::EstimateBytes(c.num_neighbors(), c.num_dst(),
                                              c.num_edges(),
                                              /*has_weights=*/true, p);
}

void Layer::ZeroGrads() {
  for (Tensor* g : grads()) g->Zero();
}

Status Layer::BackwardCached(const LocalGraph& g, const Tensor& agg,
                             const Tensor& dst_h, const Tensor& d_dst,
                             Tensor* d_src) {
  (void)g;
  (void)agg;
  (void)dst_h;
  (void)d_dst;
  (void)d_src;
  return Status::NotImplemented(std::string(name()) +
                                ": aggregate caching unsupported (edge-NN "
                                "model falls back to recomputation)");
}

Status Layer::BackwardRecompute(const LocalGraph& g, const Tensor& src_h,
                                const Tensor& d_dst, Tensor* d_src) {
  Tensor dst_h;
  std::unique_ptr<LayerCtx> ctx;
  HT_RETURN_IF_ERROR(ForwardStore(g, src_h, &dst_h, &ctx));
  return BackwardStored(g, *ctx, src_h, d_dst, d_src);
}

// The six aggregation primitives are one backend-dispatched SpMM: gather
// walks the chunk CSC (output axis = destinations), scatter walks the CSR
// mirror (output axis = sources), and the EdgeWeight mode selects the
// coefficient. A LocalGraph carrying compiled edge schedules routes the
// blocked backend onto the propagation-blocked path. See kernels/spmm.h.

void GatherWeighted(const LocalGraph& g, const Tensor& src, Tensor* dst) {
  kernels::Spmm(kernels::ActiveBackend(), kernels::EdgeWeight::kExplicit,
                g.num_dst, g.in_offsets, g.nbr_idx, g.in_weights, nullptr,
                src.data(), src.cols(), /*accumulate=*/false, dst->data(),
                g.gather_sched);
}

void GatherSum(const LocalGraph& g, const Tensor& src, Tensor* dst) {
  kernels::Spmm(kernels::ActiveBackend(), kernels::EdgeWeight::kUnit,
                g.num_dst, g.in_offsets, g.nbr_idx, nullptr, nullptr,
                src.data(), src.cols(), /*accumulate=*/false, dst->data(),
                g.gather_sched);
}

void GatherMean(const LocalGraph& g, const Tensor& src, Tensor* dst) {
  kernels::Spmm(kernels::ActiveBackend(), kernels::EdgeWeight::kInvRowDegree,
                g.num_dst, g.in_offsets, g.nbr_idx, nullptr, nullptr,
                src.data(), src.cols(), /*accumulate=*/false, dst->data(),
                g.gather_sched);
}

void ScatterWeightedAccum(const LocalGraph& g, const Tensor& d_dst,
                          Tensor* d_src) {
  kernels::Spmm(kernels::ActiveBackend(), kernels::EdgeWeight::kExplicit,
                g.num_src, g.src_offsets, g.dst_idx, g.src_weights, nullptr,
                d_dst.data(), d_dst.cols(), /*accumulate=*/true,
                d_src->data(), g.scatter_sched);
}

void ScatterSumAccum(const LocalGraph& g, const Tensor& d_dst, Tensor* d_src) {
  kernels::Spmm(kernels::ActiveBackend(), kernels::EdgeWeight::kUnit,
                g.num_src, g.src_offsets, g.dst_idx, nullptr, nullptr,
                d_dst.data(), d_dst.cols(), /*accumulate=*/true,
                d_src->data(), g.scatter_sched);
}

void ScatterMeanAccum(const LocalGraph& g, const Tensor& d_dst,
                      Tensor* d_src) {
  kernels::Spmm(kernels::ActiveBackend(), kernels::EdgeWeight::kInvColDegree,
                g.num_src, g.src_offsets, g.dst_idx, nullptr, g.in_offsets,
                d_dst.data(), d_dst.cols(), /*accumulate=*/true,
                d_src->data(), g.scatter_sched);
}

}  // namespace hongtu
