#include "hongtu/tensor/ops.h"

#include <cassert>

#include "hongtu/common/parallel.h"
#include "hongtu/kernels/backend.h"
#include "hongtu/kernels/gemm.h"
#include "hongtu/kernels/simd.h"

namespace hongtu {
namespace ops {

namespace {

kernels::Epilogue EpilogueOf(Activation act) {
  switch (act) {
    case Activation::kNone:
      return kernels::Epilogue::kBias;
    case Activation::kRelu:
      return kernels::Epilogue::kBiasRelu;
    case Activation::kSigmoid:
      return kernels::Epilogue::kBiasSigmoid;
    case Activation::kTanh:
      return kernels::Epilogue::kBiasTanh;
  }
  return kernels::Epilogue::kBias;
}

}  // namespace

void Matmul(const Tensor& a, const Tensor& b, Tensor* c) {
  assert(a.cols() == b.rows());
  assert(c->rows() == a.rows() && c->cols() == b.cols());
  kernels::Gemm(kernels::ActiveBackend(), a.data(), b.data(), c->data(),
                a.rows(), a.cols(), b.cols());
}

void MatmulBiasAct(const Tensor& a, const Tensor& b, const Tensor& bias,
                   Activation act, bool accumulate, Tensor* c) {
  assert(a.cols() == b.rows());
  assert(c->rows() == a.rows() && c->cols() == b.cols());
  assert(bias.cols() == b.cols());
  kernels::Gemm(kernels::ActiveBackend(), a.data(), b.data(), c->data(),
                a.rows(), a.cols(), b.cols(), accumulate, bias.data(),
                EpilogueOf(act));
}

void MatmulTransAAccum(const Tensor& a, const Tensor& b, Tensor* c) {
  // c (m x n) += a^T (k x m)^T * b (k x n)
  assert(a.rows() == b.rows());
  assert(c->rows() == a.cols() && c->cols() == b.cols());
  kernels::GemmTransAAccum(kernels::ActiveBackend(), a.data(), b.data(),
                           c->data(), a.rows(), a.cols(), b.cols());
}

void MatmulTransB(const Tensor& a, const Tensor& b, Tensor* c) {
  // c (m x n) = a (m x k) * b^T (n x k)^T
  assert(a.cols() == b.cols());
  assert(c->rows() == a.rows() && c->cols() == b.rows());
  kernels::GemmTransB(kernels::ActiveBackend(), a.data(), b.data(), c->data(),
                      a.rows(), a.cols(), b.rows());
}

void MatmulTransBAccum(const Tensor& a, const Tensor& b, Tensor* c) {
  assert(a.cols() == b.cols());
  assert(c->rows() == a.rows() && c->cols() == b.rows());
  kernels::GemmTransB(kernels::ActiveBackend(), a.data(), b.data(), c->data(),
                      a.rows(), a.cols(), b.rows(), /*accumulate=*/true);
}

void ColumnSumAccum(const Tensor& x, Tensor* bias_grad) {
  assert(bias_grad->cols() == x.cols());
  kernels::ColumnSumAccum(kernels::ActiveBackend(), x.data(), x.rows(),
                          x.cols(), bias_grad->data());
}

double Dot(const Tensor& a, const Tensor& b) {
  assert(a.size() == b.size());
  return kernels::Dot(kernels::ActiveBackend(), a.data(), b.data(), a.size());
}

void ReluBackward(const Tensor& x_pre, const Tensor& dy, Tensor* dx) {
  assert(x_pre.size() == dy.size() && dy.size() == dx->size());
  ParallelForChunked(0, dy.size(), [px = x_pre.data(), pdy = dy.data(),
                                    pdx = dx->data()](int64_t lo, int64_t hi) {
    kernels::ReluSelect(px + lo, pdy + lo, pdx + lo, hi - lo);
  });
}

void AddInPlace(const Tensor& x, Tensor* y) {
  assert(x.size() == y->size());
  ParallelForChunked(0, x.size(), [px = x.data(),
                                   py = y->data()](int64_t lo, int64_t hi) {
    int64_t i = lo;
    for (kernels::V16 xv, yv; i + kernels::kV <= hi; i += kernels::kV) {
      kernels::LoadV(xv, px + i);
      kernels::LoadV(yv, py + i);
      kernels::StoreV(py + i, yv + xv);
    }
    for (; i < hi; ++i) py[i] += px[i];
  });
}

}  // namespace ops
}  // namespace hongtu
