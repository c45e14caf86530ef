/// \file gcn_layer.h
/// \brief Graph convolutional layer (Kipf & Welling, Eq. 2 of the paper):
/// h_v = act(W * sum_{u in N(v)} d_uv h_u + b), with symmetric-normalized
/// edge weights d_uv. AGGREGATE is pure arithmetic, so the layer is
/// cacheable (the recomputation-caching hybrid applies, §4.2).

#pragma once

#include "hongtu/gnn/layer.h"

namespace hongtu {

class GcnLayer : public Layer {
 public:
  /// `relu` disables the activation for the final layer.
  GcnLayer(int in_dim, int out_dim, bool relu, uint64_t seed);

  const char* name() const override { return "GCN"; }
  int in_dim() const override { return in_dim_; }
  int out_dim() const override { return out_dim_; }
  bool cacheable() const override { return true; }

  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }

  Status Forward(const LocalGraph& g, const Tensor& src_h, Tensor* dst_h,
                 Tensor* agg_cache) override;
  Status ForwardStore(const LocalGraph& g, const Tensor& src_h, Tensor* dst_h,
                      std::unique_ptr<LayerCtx>* ctx) override;
  Status BackwardStored(const LocalGraph& g, const LayerCtx& ctx,
                        const Tensor& src_h, const Tensor& d_dst,
                        Tensor* d_src) override;
  Status BackwardCached(const LocalGraph& g, const Tensor& agg,
                        const Tensor& dst_h, const Tensor& d_dst,
                        Tensor* d_src) override;

  void ForwardCost(const LocalGraph& g, double* flops,
                   double* bytes) const override;
  void BackwardCost(const LocalGraph& g, bool cached, bool input_grad,
                    double* flops, double* bytes) const override;

 private:
  /// Shared backward tail given the (cached or stored) aggregate output.
  Status BackwardFromAgg(const LocalGraph& g, const Tensor& agg,
                         const Tensor& d_dst, Tensor* d_src);

  int in_dim_, out_dim_;
  bool relu_;
  Tensor w_, b_, dw_, db_;
};

}  // namespace hongtu
