// Unit tests for hongtu/tensor: Tensor storage, dense kernels and Adam.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "hongtu/tensor/adam.h"
#include "hongtu/tensor/ops.h"
#include "hongtu/tensor/pool.h"
#include "hongtu/tensor/tensor.h"

namespace hongtu {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.size(), 12);
  EXPECT_EQ(t.bytes(), 48);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.data()[i], 0.0f);
}

TEST(Tensor, FillAndAt) {
  Tensor t(2, 2);
  t.Fill(3.5f);
  EXPECT_EQ(t.at(1, 1), 3.5f);
  t.at(0, 1) = -1.0f;
  EXPECT_EQ(t.at(0, 1), -1.0f);
}

TEST(Tensor, CloneIsDeep) {
  Tensor t(2, 2);
  t.at(0, 0) = 5.0f;
  Tensor c = t.Clone();
  c.at(0, 0) = 9.0f;
  EXPECT_EQ(t.at(0, 0), 5.0f);
}

TEST(Tensor, UninitializedHasShapeAndOwnership) {
  Tensor t = Tensor::Uninitialized(4, 8);
  EXPECT_EQ(t.rows(), 4);
  EXPECT_EQ(t.cols(), 8);
  EXPECT_TRUE(t.owns_data());
  EXPECT_GE(t.capacity(), t.size());
  t.Fill(1.5f);  // contents are writable immediately
  EXPECT_EQ(t.at(3, 7), 1.5f);
}

TEST(Tensor, EnsureShapeKeepsBufferWithinCapacity) {
  // In-place reuse is pooled-mode behavior; pin it so the test also passes
  // under HONGTU_DISABLE_POOL=1 (where EnsureShape reallocates on any
  // shape change, restoring the pre-pool semantics).
  const bool saved = TensorPool::Global().enabled();
  TensorPool::Global().SetEnabled(true);
  Tensor t = Tensor::Uninitialized(10, 10);
  const float* p = t.data();
  t.EnsureShape(5, 10);
  EXPECT_EQ(t.rows(), 5);
  EXPECT_EQ(t.data(), p);
  t.EnsureShapeZeroed(2, 10);
  EXPECT_EQ(t.data(), p);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.data()[i], 0.0f);
  TensorPool::Global().SetEnabled(saved);
}

TEST(Tensor, RowSliceAliasesRows) {
  Tensor t(4, 3);
  for (int64_t i = 0; i < t.size(); ++i) t.data()[i] = static_cast<float>(i);
  Tensor s = t.RowSlice(1, 2);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_EQ(s.cols(), 3);
  EXPECT_FALSE(s.owns_data());
  EXPECT_EQ(s.at(0, 0), t.at(1, 0));
  // Writes through the source are visible in the slice (shared storage).
  t.at(1, 1) = -7.0f;
  EXPECT_EQ(s.at(0, 1), -7.0f);
}

TEST(Tensor, MoveTransfersOwnership) {
  Tensor t(3, 3);
  t.Fill(2.0f);
  const float* p = t.data();
  Tensor m = std::move(t);
  EXPECT_EQ(m.data(), p);
  EXPECT_TRUE(m.owns_data());
  EXPECT_EQ(t.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(t.size(), 0);
}

TEST(Tensor, CopyFromShapeChecked) {
  Tensor a(2, 3), b(3, 2);
  EXPECT_TRUE(a.CopyFrom(b).IsInvalid());
  Tensor c(2, 3);
  c.Fill(1.0f);
  ASSERT_TRUE(a.CopyFrom(c).ok());
  EXPECT_EQ(a.at(1, 2), 1.0f);
}

TEST(Tensor, GlorotDeterministicAndBounded) {
  Tensor a = Tensor::GlorotUniform(16, 8, 42);
  Tensor b = Tensor::GlorotUniform(16, 8, 42);
  EXPECT_EQ(Tensor::MaxAbsDiff(a, b), 0.0);
  const float limit = std::sqrt(6.0f / 24.0f);
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(std::fabs(a.data()[i]), limit);
  }
  Tensor c = Tensor::GlorotUniform(16, 8, 43);
  EXPECT_GT(Tensor::MaxAbsDiff(a, c), 0.0);
}

TEST(Tensor, MaxAbsDiffShapeMismatchIsInf) {
  Tensor a(2, 2), b(2, 3);
  EXPECT_TRUE(std::isinf(Tensor::MaxAbsDiff(a, b)));
}

TEST(Tensor, NormOfUnitRows) {
  Tensor t(4, 1);
  t.Fill(1.0f);
  EXPECT_NEAR(t.Norm(), 2.0, 1e-6);
}

TEST(Ops, MatmulSmall) {
  Tensor a(2, 3), b(3, 2), c(2, 2);
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  float av[] = {1, 2, 3, 4, 5, 6}, bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  ops::Matmul(a, b, &c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154);
}

TEST(Ops, MatmulTransAAccumMatchesExplicit) {
  Tensor a(3, 2), b(3, 4);
  for (int64_t i = 0; i < a.size(); ++i) a.data()[i] = 0.1f * (i + 1);
  for (int64_t i = 0; i < b.size(); ++i) b.data()[i] = 0.2f * (i + 1);
  Tensor c(2, 4);
  c.Fill(1.0f);  // verify accumulation
  ops::MatmulTransAAccum(a, b, &c);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      float expect = 1.0f;
      for (int64_t k = 0; k < 3; ++k) expect += a.at(k, i) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), expect, 1e-5);
    }
  }
}

TEST(Ops, MatmulTransBMatchesExplicit) {
  Tensor a(2, 3), b(4, 3), c(2, 4);
  for (int64_t i = 0; i < a.size(); ++i) a.data()[i] = 0.3f * (i + 1);
  for (int64_t i = 0; i < b.size(); ++i) b.data()[i] = -0.1f * (i + 1);
  ops::MatmulTransB(a, b, &c);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      float expect = 0.0f;
      for (int64_t k = 0; k < 3; ++k) expect += a.at(i, k) * b.at(j, k);
      EXPECT_NEAR(c.at(i, j), expect, 1e-5);
    }
  }
}

TEST(Ops, ReluBackward) {
  Tensor x(1, 4);
  float xv[] = {-2, -0.5, 0.5, 2};
  std::copy(xv, xv + 4, x.data());
  Tensor dy(1, 4);
  dy.Fill(1.0f);
  Tensor dx(1, 4);
  ops::ReluBackward(x, dy, &dx);
  EXPECT_FLOAT_EQ(dx.at(0, 0), 0);
  EXPECT_FLOAT_EQ(dx.at(0, 1), 0);
  EXPECT_FLOAT_EQ(dx.at(0, 2), 1);
  EXPECT_FLOAT_EQ(dx.at(0, 3), 1);
}

TEST(Ops, AddInPlace) {
  Tensor x(1, 3), y(1, 3);
  x.Fill(2.0f);
  y.Fill(1.0f);
  ops::AddInPlace(x, &y);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.0f);
}

// ReluBackward and AddInPlace equal their scalar definitions bit for bit:
// at lengths covering a lone tail, a full vector and every tail remainder,
// and with NaN, signed zeros, denormals and infinities in both operands.
TEST(Ops, ElementwiseMatchScalarReferenceBitwise) {
  const float inf = std::numeric_limits<float>::infinity();
  const float den = std::numeric_limits<float>::denorm_min();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> xs = {nan, 0.0f, -0.0f, den, -den, inf, -inf,
                                 1.5f, -2.5f};
  const std::vector<float> dys = {nan, -0.0f, 0.75f, -3.0f, 0.0f};
  for (int64_t n : {1, 15, 16, 17, 4099}) {
    SCOPED_TRACE(n);
    Tensor x(1, n), dy(1, n), dx(1, n), y(1, n);
    std::vector<float> want_dx(n), want_y(n);
    for (int64_t i = 0; i < n; ++i) {
      // i % 9 and i / 9 pair every x value with every dy value by n = 45.
      x.data()[i] = xs[i % xs.size()];
      dy.data()[i] = dys[(i / xs.size()) % dys.size()];
      y.data()[i] = dy.data()[i];
      want_dx[i] = x.data()[i] > 0 ? dy.data()[i] : 0.0f;
      want_y[i] = y.data()[i] + x.data()[i];
    }
    ops::ReluBackward(x, dy, &dx);
    ops::AddInPlace(x, &y);
    EXPECT_EQ(0, std::memcmp(dx.data(), want_dx.data(), n * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(y.data(), want_y.data(), n * sizeof(float)));
  }
}

TEST(Ops, LeakyReluScalar) {
  EXPECT_FLOAT_EQ(ops::LeakyRelu(2.0f, 0.2f), 2.0f);
  EXPECT_FLOAT_EQ(ops::LeakyRelu(-2.0f, 0.2f), -0.4f);
  EXPECT_FLOAT_EQ(ops::LeakyReluGrad(1.0f, 0.2f), 1.0f);
  EXPECT_FLOAT_EQ(ops::LeakyReluGrad(-1.0f, 0.2f), 0.2f);
}

TEST(Adam, DescendsQuadratic) {
  // Minimize f(w) = 0.5 * w^2; grad = w.
  Tensor w(1, 1);
  w.at(0, 0) = 5.0f;
  AdamOptions opts;
  opts.lr = 0.2f;
  Adam adam(opts);
  adam.Register(&w);
  for (int step = 0; step < 200; ++step) {
    Tensor g = w.Clone();
    ASSERT_TRUE(adam.Step({&g}).ok());
  }
  EXPECT_NEAR(w.at(0, 0), 0.0f, 0.05f);
}

TEST(Adam, RejectsWrongGradCount) {
  Tensor w(1, 1);
  Adam adam;
  adam.Register(&w);
  EXPECT_TRUE(adam.Step({}).IsInvalid());
}

TEST(Adam, RejectsWrongGradShape) {
  Tensor w(2, 2), g(1, 1);
  Adam adam;
  adam.Register(&w);
  EXPECT_TRUE(adam.Step({&g}).IsInvalid());
}

TEST(Adam, WeightDecayShrinksParams) {
  Tensor w(1, 1);
  w.at(0, 0) = 1.0f;
  AdamOptions opts;
  opts.lr = 0.01f;
  opts.weight_decay = 1.0f;
  Adam adam(opts);
  adam.Register(&w);
  Tensor g(1, 1);  // zero gradient; only decay acts
  for (int step = 0; step < 50; ++step) ASSERT_TRUE(adam.Step({&g}).ok());
  EXPECT_LT(w.at(0, 0), 1.0f);
}

}  // namespace
}  // namespace hongtu
