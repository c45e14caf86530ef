#include "hongtu/gnn/sage_layer.h"

#include "hongtu/kernels/backend.h"
#include "hongtu/kernels/spmm.h"
#include "hongtu/tensor/ops.h"

namespace hongtu {

namespace {

/// Extracts the destinations' own rows from the source-space buffer.
void GatherSelf(const LocalGraph& g, const Tensor& src_h, Tensor* dst_rows) {
  kernels::GatherRows(kernels::ActiveBackend(), g.self_idx, g.num_dst,
                      src_h.data(), src_h.cols(), dst_rows->data());
}

struct SageCtx : public LayerCtx {
  Tensor agg;    // mean aggregate (num_dst x in)
  Tensor self_h; // destinations' own input rows (num_dst x in)
  Tensor h;      // activated output; carries the ReLU mask (h > 0 iff z > 0)
  int64_t bytes() const override {
    return agg.bytes() + self_h.bytes() + h.bytes();
  }
};

/// dst_h = act(self_h*Ws + agg*Wn + b): the second GEMM accumulates onto the
/// first and fuses bias + activation into its epilogue.
void UpdateForward(const Tensor& self_h, const Tensor& agg, const Tensor& ws,
                   const Tensor& wn, const Tensor& b, bool relu,
                   Tensor* dst_h) {
  ops::Matmul(self_h, ws, dst_h);
  ops::MatmulBiasAct(agg, wn, b,
                     relu ? ops::Activation::kRelu : ops::Activation::kNone,
                     /*accumulate=*/true, dst_h);
}

}  // namespace

SageLayer::SageLayer(int in_dim, int out_dim, bool relu, uint64_t seed)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      relu_(relu),
      w_self_(Tensor::GlorotUniform(in_dim, out_dim, seed)),
      w_nbr_(Tensor::GlorotUniform(in_dim, out_dim, seed + 1)),
      b_(1, out_dim),
      dw_self_(in_dim, out_dim),
      dw_nbr_(in_dim, out_dim),
      db_(1, out_dim) {}

Status SageLayer::Forward(const LocalGraph& g, const Tensor& src_h,
                          Tensor* dst_h, Tensor* agg_cache) {
  // All scratch is fully overwritten before use: pooled, uninitialized, and
  // the caller's agg workspace is filled in place.
  Tensor local_agg;
  Tensor* agg = agg_cache != nullptr ? agg_cache : &local_agg;
  agg->EnsureShape(g.num_dst, in_dim_);
  GatherMean(g, src_h, agg);
  Tensor self_h = Tensor::Uninitialized(g.num_dst, in_dim_);
  GatherSelf(g, src_h, &self_h);
  dst_h->EnsureShape(g.num_dst, out_dim_);
  UpdateForward(self_h, *agg, w_self_, w_nbr_, b_, relu_, dst_h);
  return Status::OK();
}

Status SageLayer::ForwardStore(const LocalGraph& g, const Tensor& src_h,
                               Tensor* dst_h, std::unique_ptr<LayerCtx>* ctx) {
  auto c = std::make_unique<SageCtx>();
  c->agg = Tensor::Uninitialized(g.num_dst, in_dim_);
  GatherMean(g, src_h, &c->agg);
  c->self_h = Tensor::Uninitialized(g.num_dst, in_dim_);
  GatherSelf(g, src_h, &c->self_h);
  c->h = Tensor::Uninitialized(g.num_dst, out_dim_);
  UpdateForward(c->self_h, c->agg, w_self_, w_nbr_, b_, relu_, &c->h);
  // The output IS the stored activation; hand out a view instead of a copy
  // (valid while *ctx lives — see Layer::ForwardStore).
  *dst_h = Tensor::View(c->h);
  *ctx = std::move(c);
  return Status::OK();
}

Status SageLayer::BackwardImpl(const LocalGraph& g, const Tensor& agg,
                               const Tensor& dst_h, const Tensor& d_dst,
                               Tensor* d_src, const Tensor* stored_h) {
  if (dst_h.rows() != g.num_dst || dst_h.cols() != in_dim_) {
    return Status::Invalid("SageLayer backward requires destination rows");
  }
  Tensor dz = Tensor::Uninitialized(g.num_dst, out_dim_);
  if (relu_) {
    if (stored_h != nullptr) {
      ops::ReluBackward(*stored_h, d_dst, &dz);
    } else {
      // Recompute the activated output for the ReLU mask (h > 0 iff z > 0).
      Tensor h = Tensor::Uninitialized(g.num_dst, out_dim_);
      UpdateForward(dst_h, agg, w_self_, w_nbr_, b_, /*relu=*/true, &h);
      ops::ReluBackward(h, d_dst, &dz);
    }
  } else {
    HT_RETURN_IF_ERROR(dz.CopyFrom(d_dst));
  }
  ops::MatmulTransAAccum(dst_h, dz, &dw_self_);
  ops::MatmulTransAAccum(agg, dz, &dw_nbr_);
  ops::ColumnSumAccum(dz, &db_);
  if (d_src == nullptr) return Status::OK();  // no input gradient wanted
  // Neighbor path: d_agg scattered with mean weights.
  Tensor dagg = Tensor::Uninitialized(g.num_dst, in_dim_);
  ops::MatmulTransB(dz, w_nbr_, &dagg);
  ScatterMeanAccum(g, dagg, d_src);
  // Self path: accumulate at the destinations' own source slots.
  Tensor dself = Tensor::Uninitialized(g.num_dst, in_dim_);
  ops::MatmulTransB(dz, w_self_, &dself);
  kernels::ScatterRowsAccum(kernels::ActiveBackend(), g.self_idx, g.num_dst,
                            dself.data(), 1.0f, in_dim_, d_src->data());
  return Status::OK();
}

Status SageLayer::BackwardStored(const LocalGraph& g, const LayerCtx& ctx,
                                 const Tensor& src_h, const Tensor& d_dst,
                                 Tensor* d_src) {
  (void)src_h;
  const auto& c = static_cast<const SageCtx&>(ctx);
  return BackwardImpl(g, c.agg, c.self_h, d_dst, d_src, &c.h);
}

Status SageLayer::BackwardCached(const LocalGraph& g, const Tensor& agg,
                                 const Tensor& dst_h, const Tensor& d_dst,
                                 Tensor* d_src) {
  return BackwardImpl(g, agg, dst_h, d_dst, d_src, /*stored_h=*/nullptr);
}

void SageLayer::ForwardCost(const LocalGraph& g, double* flops,
                            double* bytes) const {
  const double e = static_cast<double>(g.num_edges);
  const double nd = static_cast<double>(g.num_dst);
  *flops = 2.0 * e * in_dim_ + 4.0 * nd * in_dim_ * out_dim_;
  *bytes = (e + 2.0 * nd) * in_dim_ * 4.0 + nd * out_dim_ * 8.0;
}

void SageLayer::BackwardCost(const LocalGraph& g, bool cached,
                             bool input_grad, double* flops,
                             double* bytes) const {
  const double e = static_cast<double>(g.num_edges);
  const double nd = static_cast<double>(g.num_dst);
  const double ns = static_cast<double>(g.num_src);
  // UPDATE re-forward + both dW; the input gradient adds the d_agg and
  // d_self GEMMs + their scatters.
  *flops = 8.0 * nd * in_dim_ * out_dim_;
  *bytes = 2.0 * nd * in_dim_ * 4.0 + nd * out_dim_ * 12.0;
  if (input_grad) {
    *flops += 4.0 * nd * in_dim_ * out_dim_ + 2.0 * e * in_dim_;
    *bytes += (e + ns) * in_dim_ * 4.0;
  }
  if (!cached) {
    *flops += 2.0 * e * in_dim_;
    *bytes += e * in_dim_ * 4.0;
  }
}

}  // namespace hongtu
