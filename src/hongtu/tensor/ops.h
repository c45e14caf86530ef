/// \file ops.h
/// \brief Dense kernels used by the simulated-GPU compute engine.
///
/// These are the CPU stand-ins for the cuBLAS/cuSparse kernels the paper's
/// implementation calls. They are thin Tensor-typed wrappers over the
/// backend-dispatched kernels in hongtu/kernels/ (blocked SIMD by default,
/// seed-faithful reference loops via HONGTU_KERNEL_BACKEND=reference) and
/// are deterministic (no atomics, fixed reduction order per row).

#pragma once

#include "hongtu/tensor/tensor.h"

namespace hongtu {
namespace ops {

/// Activation fused into MatmulBiasAct's epilogue.
enum class Activation {
  kNone,
  kRelu,
  kSigmoid,
  kTanh,
};

/// C = A * B. Shapes: (m x k) * (k x n) -> (m x n). C is overwritten.
void Matmul(const Tensor& a, const Tensor& b, Tensor* c);

/// C = act([C +] A * B + bias): the fused UPDATE-stage kernel. `bias` is a
/// (1 x n) row broadcast over rows; `accumulate` adds onto the existing C
/// (for multi-term updates like SAGE's self+neighbor paths). Single pass
/// over C — no separate bias/activation sweep.
void MatmulBiasAct(const Tensor& a, const Tensor& b, const Tensor& bias,
                   Activation act, bool accumulate, Tensor* c);

/// C += A^T * B. Shapes: (k x m)^T * (k x n) -> (m x n). Used for dW.
void MatmulTransAAccum(const Tensor& a, const Tensor& b, Tensor* c);

/// C = A * B^T. Shapes: (m x k) * (n x k)^T -> (m x n). Used for dX.
void MatmulTransB(const Tensor& a, const Tensor& b, Tensor* c);

/// C += A * B^T. Shapes as MatmulTransB. Adds dX into a gradient buffer in
/// the GEMM's store instead of a separate pass.
void MatmulTransBAccum(const Tensor& a, const Tensor& b, Tensor* c);

/// bias_grad (1 x n) += column sums of X (m x n). Used for db.
void ColumnSumAccum(const Tensor& x, Tensor* bias_grad);

/// sum_i a[i]*b[i] over flattened tensors, accumulated in double.
double Dot(const Tensor& a, const Tensor& b);

/// dx = dy * 1[x_pre > 0]; `x_pre` is the pre-activation input.
void ReluBackward(const Tensor& x_pre, const Tensor& dy, Tensor* dx);

/// y += x (elementwise).
void AddInPlace(const Tensor& x, Tensor* y);

/// Leaky ReLU forward value for a scalar.
inline float LeakyRelu(float x, float slope) { return x > 0 ? x : slope * x; }
/// Leaky ReLU derivative for a scalar (w.r.t. pre-activation).
inline float LeakyReluGrad(float x, float slope) { return x > 0 ? 1.0f : slope; }

}  // namespace ops
}  // namespace hongtu
