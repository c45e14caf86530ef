#include "hongtu/gnn/gat_layer.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include "hongtu/common/parallel.h"
#include "hongtu/kernels/backend.h"
#include "hongtu/kernels/simd.h"
#include "hongtu/kernels/spmm.h"
#include "hongtu/tensor/ops.h"

namespace hongtu {

namespace {

struct GatCtx : public LayerCtx {
  Tensor p;       // projected sources W h_u (num_src x out)
  Tensor s_src;   // a_src . P[u] (num_src x 1)
  Tensor t_dst;   // a_dst . P[self(v)] (num_dst x 1)
  Tensor pre;     // LeakyReLU(raw) per CSC edge (num_edges x 1)
  Tensor alpha;   // softmax weight per CSC edge (num_edges x 1)
  Tensor o;       // pre-activation output (num_dst x out)
  int64_t bytes() const override {
    return p.bytes() + s_src.bytes() + t_dst.bytes() + pre.bytes() +
           alpha.bytes() + o.bytes();
  }
};

// ---- Width-specialized edge loops. ------------------------------------------
//
// Every per-edge loop runs over one row of the layer width. WithWidth
// instantiates the loop body for the widths models use (16, 32, 64) so rows
// live in vector registers and the k loops unroll; kW == 0 is the
// runtime-width fallback. All forms give identical bits: dot products keep
// their k order (DotRows only runs sixteen of them side by side), and row
// accumulators start from zero and add terms in edge order.

template <int kW>
using Width = std::integral_constant<int, kW>;

template <typename Fn>
void WithWidth(int64_t width, Fn&& fn) {
  switch (width) {
    case 16:
      return fn(Width<16>{});
    case 32:
      return fn(Width<32>{});
    case 64:
      return fn(Width<64>{});
    default:
      return fn(Width<0>{});
  }
}

/// Accumulates one output row. For kW > 0 the row lives in kW/16 vector
/// registers; the kW == 0 fallback accumulates in `scratch`, which may be
/// the output row itself.
template <int kW>
class RowAcc {
 public:
  RowAcc(float* /*scratch*/, int64_t /*width*/) {}
  /// row += a * x.
  void Axpy(float a, const float* x) {
    for (int i = 0; i < kW / kernels::kV; ++i) {
      kernels::V16 xv;
      kernels::LoadV(xv, x + i * kernels::kV);
      v_[i] += a * xv;
    }
  }
  /// out = row.
  void Store(float* out) const {
    for (int i = 0; i < kW / kernels::kV; ++i) {
      kernels::StoreV(out + i * kernels::kV, v_[i]);
    }
  }
  /// out += row.
  void AddTo(float* out) const {
    for (int i = 0; i < kW / kernels::kV; ++i) {
      kernels::V16 o;
      kernels::LoadV(o, out + i * kernels::kV);
      kernels::StoreV(out + i * kernels::kV, o + v_[i]);
    }
  }

 private:
  kernels::V16 v_[kW / kernels::kV] = {};
};

template <>
class RowAcc<0> {
 public:
  RowAcc(float* scratch, int64_t width) : v_(scratch), w_(width) {
    for (int64_t k = 0; k < w_; ++k) v_[k] = 0.0f;
  }
  void Axpy(float a, const float* x) {
    for (int64_t k = 0; k < w_; ++k) v_[k] += a * x[k];
  }
  void Store(float* out) const {
    if (out == v_) return;
    for (int64_t k = 0; k < w_; ++k) out[k] = v_[k];
  }
  void AddTo(float* out) const {
    for (int64_t k = 0; k < w_; ++k) out[k] += v_[k];
  }

 private:
  float* v_;
  int64_t w_;
};

/// Source lanes of one transpose stage over the pair (a, c): lane j of the
/// low output takes a's lane j where bit b of j is clear, else c's lane
/// j - b; the high output takes a's lane j + b, else c's lane j.
constexpr int LoLane(int b, int j) { return (j & b) ? kernels::kV + j - b : j; }
constexpr int HiLane(int b, int j) { return (j & b) ? kernels::kV + j : j + b; }

/// One stage of Transpose16: swaps bit B between the row and the column
/// index of every element.
template <int B, int... Js>
inline void TransposeStage(kernels::V16 (&r)[kernels::kV],
                           std::integer_sequence<int, Js...>) {
  for (int i = 0; i < kernels::kV; ++i) {
    if (i & B) continue;
    const kernels::V16 a = r[i], c = r[i + B];
    r[i] = __builtin_shufflevector(a, c, LoLane(B, Js)...);
    r[i + B] = __builtin_shufflevector(a, c, HiLane(B, Js)...);
  }
}

/// Transposes the 16 x 16 block r in place: r[j][l] becomes r[l][j].
inline void Transpose16(kernels::V16 (&r)[kernels::kV]) {
  constexpr auto lanes = std::make_integer_sequence<int, kernels::kV>{};
  TransposeStage<1>(r, lanes);
  TransposeStage<2>(r, lanes);
  TransposeStage<4>(r, lanes);
  TransposeStage<8>(r, lanes);
}

/// Calls emit(i, x . row(i)) for i in [lo, hi), in order. The runtime-width
/// form is the plain scalar loop. For kW > 0 each product is rounded on its
/// own and the products are added in k order, which is what the compiler
/// makes of that scalar loop at these widths (a vector multiply feeding an
/// in-order reduction, no fused multiply-add). Sixteen rows run at once:
/// their 16 x 16 product blocks are transposed, so one vector add advances
/// all sixteen sums by one k.
template <int kW, typename RowFn, typename EmitFn>
void DotRows(const float* x, int64_t width, int64_t lo, int64_t hi,
             RowFn&& row, EmitFn&& emit) {
  if constexpr (kW > 0) {
    using kernels::kV;
    for (int64_t i = lo; i < hi; i += kV) {
      const int n = static_cast<int>(std::min<int64_t>(kV, hi - i));
      // Lanes past the range dot x with itself and are dropped.
      const float* r[kV];
      for (int l = 0; l < kV; ++l) r[l] = l < n ? row(i + l) : x;
      kernels::V16 acc = {};
      for (int k = 0; k < kW; k += kV) {
        kernels::V16 xv, prod[kV];
        kernels::LoadV(xv, x + k);
        for (int l = 0; l < kV; ++l) {
          kernels::LoadV(prod[l], r[l] + k);
          prod[l] *= xv;
        }
        Transpose16(prod);
        for (int j = 0; j < kV; ++j) acc += prod[j];
      }
      float out[kV];
      kernels::StoreV(out, acc);
      for (int l = 0; l < n; ++l) emit(i + l, out[l]);
    }
  } else {
    for (int64_t i = lo; i < hi; ++i) {
      const float* r = row(i);
      float acc = 0.0f;
      for (int64_t k = 0; k < width; ++k) acc += x[k] * r[k];
      emit(i, acc);
    }
  }
}

}  // namespace

GatLayer::GatLayer(int in_dim, int out_dim, bool relu, uint64_t seed)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      relu_(relu),
      w_(Tensor::GlorotUniform(in_dim, out_dim, seed)),
      a_src_(Tensor::GlorotUniform(1, out_dim, seed + 1)),
      a_dst_(Tensor::GlorotUniform(1, out_dim, seed + 2)),
      dw_(in_dim, out_dim),
      da_src_(1, out_dim),
      da_dst_(1, out_dim) {}

Status GatLayer::ForwardStore(const LocalGraph& g, const Tensor& src_h,
                              Tensor* dst_h, std::unique_ptr<LayerCtx>* ctx) {
  // All edge/vertex state below is fully written before being read, so the
  // whole attention pipeline draws pooled uninitialized buffers.
  auto c = std::make_unique<GatCtx>();
  c->p = Tensor::Uninitialized(g.num_src, out_dim_);
  ops::Matmul(src_h, w_, &c->p);

  c->s_src = Tensor::Uninitialized(g.num_src, 1);
  c->t_dst = Tensor::Uninitialized(g.num_dst, 1);
  c->pre = Tensor::Uninitialized(g.num_edges, 1);
  c->alpha = Tensor::Uninitialized(g.num_edges, 1);
  c->o = Tensor::Uninitialized(g.num_dst, out_dim_);
  dst_h->EnsureShape(g.num_dst, out_dim_);

  WithWidth(out_dim_, [&](auto width) {
    constexpr int kW = decltype(width)::value;
    const float* pasrc = a_src_.data();
    const float* padst = a_dst_.data();
    ParallelForChunked(0, g.num_src, [&](int64_t lo, int64_t hi) {
      DotRows<kW>(
          pasrc, out_dim_, lo, hi, [&](int64_t s) { return c->p.row(s); },
          [&](int64_t s, float v) { c->s_src.at(s, 0) = v; });
    });
    // A destination without a self row scores 0; its lane dots a_dst with
    // itself and is dropped.
    ParallelForChunked(0, g.num_dst, [&](int64_t lo, int64_t hi) {
      DotRows<kW>(
          padst, out_dim_, lo, hi,
          [&](int64_t d) {
            const int32_t s = g.self_idx[d];
            return s >= 0 ? c->p.row(s) : padst;
          },
          [&](int64_t d, float v) {
            c->t_dst.at(d, 0) = g.self_idx[d] >= 0 ? v : 0.0f;
          });
    });

    // Edge-balanced split: the whole attention pipeline is O(edges), so a
    // vertex split would leave threads idle behind power-law hubs.
    ParallelForBalanced(g.num_dst, g.in_offsets, [&](int64_t lo, int64_t hi) {
      for (int64_t d = lo; d < hi; ++d) {
        const int64_t e0 = g.in_offsets[d], e1 = g.in_offsets[d + 1];
        // Attention logits with LeakyReLU; neighbor-softmax (stable).
        float mx = -1e30f;
        for (int64_t e = e0; e < e1; ++e) {
          const float raw = c->s_src.at(g.nbr_idx[e], 0) + c->t_dst.at(d, 0);
          const float v = ops::LeakyRelu(raw, kLeakySlope);
          c->pre.at(e, 0) = v;
          mx = std::max(mx, v);
        }
        float denom = 0.0f;
        for (int64_t e = e0; e < e1; ++e) {
          const float ex = std::exp(c->pre.at(e, 0) - mx);
          c->alpha.at(e, 0) = ex;
          denom += ex;
        }
        const float inv = denom > 0 ? 1.0f / denom : 0.0f;
        float* po = c->o.row(d);
        RowAcc<kW> acc(po, out_dim_);
        for (int64_t e = e0; e < e1; ++e) {
          const float a = c->alpha.at(e, 0) * inv;
          c->alpha.at(e, 0) = a;
          acc.Axpy(a, c->p.row(g.nbr_idx[e]));
        }
        acc.Store(po);
        float* ph = dst_h->row(d);
        if (relu_) {
          kernels::ReluSelect(po, po, ph, out_dim_);
        } else {
          std::copy(po, po + out_dim_, ph);
        }
      }
    });
  });

  *ctx = std::move(c);
  return Status::OK();
}

Status GatLayer::Forward(const LocalGraph& g, const Tensor& src_h,
                         Tensor* dst_h, Tensor* agg_cache) {
  // GAT has no cacheable AGGREGATE output (§4.2): `agg_cache` stays empty and
  // the engine uses the recomputation path in backward.
  (void)agg_cache;
  std::unique_ptr<LayerCtx> ctx;
  return ForwardStore(g, src_h, dst_h, &ctx);
}

Status GatLayer::BackwardStored(const LocalGraph& g, const LayerCtx& ctx,
                                const Tensor& src_h, const Tensor& d_dst,
                                Tensor* d_src) {
  const auto& c = static_cast<const GatCtx&>(ctx);

  // do = d act(o).
  Tensor dout = Tensor::Uninitialized(g.num_dst, out_dim_);
  if (relu_) {
    ops::ReluBackward(c.o, d_dst, &dout);
  } else {
    HT_RETURN_IF_ERROR(dout.CopyFrom(d_dst));
  }

  // Every dp row is stored whole: by its first banded run (or zeroed below
  // for edgeless sources), or by the single-pass loop.
  Tensor dp = Tensor::Uninitialized(g.num_src, out_dim_);
  Tensor ds_src = Tensor::Uninitialized(g.num_src, 1);
  // Every edge/destination entry is written in the destination-major loop.
  Tensor dlin = Tensor::Uninitialized(g.num_edges, 1);
  Tensor dt_dst = Tensor::Uninitialized(g.num_dst, 1);
  const float* pasrc = a_src_.data();

  WithWidth(out_dim_, [&](auto width) {
    constexpr int kW = decltype(width)::value;
    // Destination-major phase: softmax + LeakyReLU backward per edge.
    ParallelForBalanced(g.num_dst, g.in_offsets, [&](int64_t lo, int64_t hi) {
      for (int64_t d = lo; d < hi; ++d) {
        const int64_t e0 = g.in_offsets[d], e1 = g.in_offsets[d + 1];
        // Stash d_alpha = dout[d] . P[u] in dlin first.
        float sumterm = 0.0f;
        DotRows<kW>(
            dout.row(d), out_dim_, e0, e1,
            [&](int64_t e) { return c.p.row(g.nbr_idx[e]); },
            [&](int64_t e, float da) {
              dlin.at(e, 0) = da;
              sumterm += c.alpha.at(e, 0) * da;
            });
        float dt = 0.0f;
        for (int64_t e = e0; e < e1; ++e) {
          const float dpre = c.alpha.at(e, 0) * (dlin.at(e, 0) - sumterm);
          dlin.at(e, 0) =
              dpre * ops::LeakyReluGrad(c.pre.at(e, 0), kLeakySlope);
          dt += dlin.at(e, 0);
        }
        dt_dst.at(d, 0) = dt;
      }
    });

    // Source-major phase: dP and ds_src (race-free via the CSR mirror). This
    // walk has the same random-read shape the scatter schedule fixes for the
    // SpMM primitives (per-source loop, random dout rows), so when the chunk
    // carries a compiled schedule whose heuristic accepts the width, the
    // phase runs the propagation-blocked sweep: (band over destinations,
    // shard over sources) bucket order keeps the dout slice L2-resident,
    // shards own disjoint source rows (conflict-free parallel), and per-run
    // register accumulation touches each dp row once per (row, band). The
    // per-edge alpha/dlin lookups stay indexed through edge_perm — they are
    // 4-byte streams, not the latency-bound part.
    const kernels::EdgeSchedule* ss = g.scatter_sched;
    const bool banded =
        kernels::ActiveBackend() == kernels::Backend::kBlocked &&
        ss != nullptr && ss->num_out() == g.num_src &&
        ss->num_edges() == g.num_edges &&
        ss->ShouldUse(out_dim_, /*accumulate=*/true);
    if (!banded) {
      ParallelForBalanced(g.num_src, g.src_offsets,
                          [&](int64_t lo, int64_t hi) {
        for (int64_t s = lo; s < hi; ++s) {
          float* pdp = dp.row(s);
          RowAcc<kW> acc(pdp, out_dim_);
          float ds = 0.0f;
          for (int64_t e = g.src_offsets[s]; e < g.src_offsets[s + 1]; ++e) {
            const int32_t ce = g.src_edge_idx[e];
            ds += dlin.at(ce, 0);
            acc.Axpy(c.alpha.at(ce, 0), dout.row(g.dst_idx[e]));
          }
          ds_src.at(s, 0) = ds;
          acc.Axpy(ds, pasrc);
          acc.Store(pdp);
        }
      });
      return;
    }
    const int32_t* zr = ss->zero_rows();
    ParallelForChunked(0, ss->num_zero_rows(), [&](int64_t lo, int64_t hi) {
      for (int64_t z = lo; z < hi; ++z) {
        float* pdp = dp.row(zr[z]);
        for (int64_t k = 0; k < out_dim_; ++k) pdp[k] = 0.0f;
        ds_src.at(zr[z], 0) = 0.0f;
      }
    });
    const int B = ss->num_bands();
    const int64_t* bo = ss->bucket_offsets();
    const int32_t* rnd = ss->rnd_perm();
    const int32_t* op = ss->out_perm();
    const int32_t* ep = ss->edge_perm();
    ParallelForBalanced(
        ss->num_shards(), ss->shard_edge_prefix(), kParallelSerialThreshold,
        [&](int64_t t_lo, int64_t t_hi) {
          float scratch[256];  // ShouldUse caps the width at 256
          for (int b = 0; b < B; ++b) {
            for (int64_t t = t_lo; t < t_hi; ++t) {
              const int64_t bid = t * B + b;
              const int64_t e1 = bo[bid + 1];
              int64_t k = bo[bid];
              while (k < e1) {
                const int32_t ov = op[k];
                const int32_t s = ov & kernels::EdgeSchedule::kRowMask;
                const bool first = ov < 0;
                float ds = 0.0f;
                RowAcc<kW> acc(scratch, out_dim_);
                // Continuation edges of a run are never flagged, so the raw
                // packed value compares equal to the masked row id.
                do {
                  const int32_t ce = g.src_edge_idx[ep[k]];
                  ds += dlin.at(ce, 0);
                  acc.Axpy(c.alpha.at(ce, 0), dout.row(rnd[k]));
                  ++k;
                } while (k < e1 && op[k] == s);
                if (first) {
                  acc.Store(dp.row(s));
                  ds_src.at(s, 0) = ds;
                } else {
                  acc.AddTo(dp.row(s));
                  ds_src.at(s, 0) += ds;
                }
              }
            }
          }
        },
        /*max_threads=*/omp_get_num_procs());
    // The a_src term needs the fully accumulated ds_src, so it folds in
    // after the banded sweep (the single-pass loop fuses it per source).
    ParallelForChunked(0, g.num_src, [&](int64_t lo, int64_t hi) {
      for (int64_t s = lo; s < hi; ++s) {
        const float ds = ds_src.at(s, 0);
        float* pdp = dp.row(s);
        for (int64_t k = 0; k < out_dim_; ++k) pdp[k] += ds * pasrc[k];
      }
    });
  });
  // Destination self contribution (self_idx is injective over destinations).
  const float* padst = a_dst_.data();
  ParallelForChunked(0, g.num_dst, [&](int64_t lo, int64_t hi) {
    for (int64_t d = lo; d < hi; ++d) {
      const int32_t s = g.self_idx[d];
      if (s < 0) continue;
      const float dt = dt_dst.at(d, 0);
      float* pdp = dp.row(s);
      for (int64_t k = 0; k < out_dim_; ++k) pdp[k] += dt * padst[k];
    }
  });

  // Attention vector gradients.
  ops::MatmulTransAAccum(ds_src, c.p, &da_src_);
  {
    Tensor p_self = Tensor::Uninitialized(g.num_dst, out_dim_);
    kernels::GatherRows(kernels::ActiveBackend(), g.self_idx, g.num_dst,
                        c.p.data(), out_dim_, p_self.data());
    ops::MatmulTransAAccum(dt_dst, p_self, &da_dst_);
  }

  // Weight gradient and (unless skipped) the input gradient.
  ops::MatmulTransAAccum(src_h, dp, &dw_);
  if (d_src != nullptr) ops::MatmulTransBAccum(dp, w_, d_src);
  return Status::OK();
}

void GatLayer::ForwardCost(const LocalGraph& g, double* flops,
                           double* bytes) const {
  const double e = static_cast<double>(g.num_edges);
  const double ns = static_cast<double>(g.num_src);
  const double nd = static_cast<double>(g.num_dst);
  // The edge pipeline (attention logits, LeakyReLU, neighbor softmax,
  // weighted aggregation) makes several memory-bound passes over O(|E|)
  // state; the per-edge constants below are calibrated to the ~4.5x
  // GAT-vs-GCN kernel-time ratio the paper reports (§7.4).
  *flops = 2.0 * ns * in_dim_ * out_dim_ + 2.0 * ns * out_dim_ +
           e * (12.0 * out_dim_ + 30.0) + 2.0 * nd * out_dim_;
  *bytes = ns * (in_dim_ + out_dim_) * 4.0 + e * (out_dim_ * 36.0 + 32.0) +
           nd * out_dim_ * 8.0;
}

void GatLayer::BackwardCost(const LocalGraph& g, bool cached, bool input_grad,
                            double* flops, double* bytes) const {
  (void)cached;  // GAT always recomputes.
  double ff, fb;
  ForwardCost(g, &ff, &fb);
  // Backward roughly mirrors forward twice (dP accumulation + scatter).
  *flops = 2.0 * ff;
  *bytes = 2.0 * fb;
  if (!input_grad) {
    // Without the input gradient the dP * W^T GEMM goes.
    const double ns = static_cast<double>(g.num_src);
    *flops -= 2.0 * ns * in_dim_ * out_dim_;
    *bytes -= ns * in_dim_ * 4.0;
  }
}

}  // namespace hongtu
