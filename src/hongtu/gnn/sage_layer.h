/// \file sage_layer.h
/// \brief GraphSAGE layer with mean aggregator (Hamilton et al.):
/// h_v = act(W_self h_v + W_nbr mean_{u in N(v)} h_u + b).
/// Mean aggregation is arithmetic-only, so the layer is cacheable; the
/// cached backward additionally needs the destinations' own representations
/// (needs_dst_h), which the engine reads from the host vertex data.

#pragma once

#include "hongtu/gnn/layer.h"

namespace hongtu {

class SageLayer : public Layer {
 public:
  SageLayer(int in_dim, int out_dim, bool relu, uint64_t seed);

  const char* name() const override { return "SAGE"; }
  int in_dim() const override { return in_dim_; }
  int out_dim() const override { return out_dim_; }
  bool cacheable() const override { return true; }
  bool needs_dst_h() const override { return true; }

  std::vector<Tensor*> params() override { return {&w_self_, &w_nbr_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_self_, &dw_nbr_, &db_}; }

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
  /// `stored_h` is the activated forward output when available (stored
  /// path); null means recompute it for the ReLU mask (cached path).
  Status BackwardImpl(const LocalGraph& g, const Tensor& agg,
                      const Tensor& dst_h, const Tensor& d_dst, Tensor* d_src,
                      const Tensor* stored_h);

  int in_dim_, out_dim_;
  bool relu_;
  Tensor w_self_, w_nbr_, b_;
  Tensor dw_self_, dw_nbr_, db_;
};

}  // namespace hongtu
