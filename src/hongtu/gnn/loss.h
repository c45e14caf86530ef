/// \file loss.h
/// \brief Downstream task: softmax cross-entropy over labeled vertices plus
/// accuracy metrics (Algorithm 1 lines 10-11).

#pragma once

#include <vector>

#include "hongtu/graph/datasets.h"
#include "hongtu/tensor/tensor.h"

namespace hongtu {

struct LossResult {
  double loss = 0.0;      ///< mean cross-entropy over `vertices`
  double accuracy = 0.0;  ///< top-1 accuracy over `vertices`
};

/// Computes mean softmax cross-entropy over `vertices` and, when `d_logits`
/// is non-null, writes the loss gradient (zero rows for unlabeled vertices;
/// each labeled row gets (softmax - onehot) / |vertices|).
LossResult SoftmaxCrossEntropy(const Tensor& logits,
                               const std::vector<int32_t>& labels,
                               const std::vector<VertexId>& vertices,
                               Tensor* d_logits);

/// The same over a part of a larger set: the mean is taken over
/// `denominator` vertices, of which `vertices` are the ones computed here.
/// Loss and accuracy are this part's sums divided by `denominator`, so the
/// parts of a set add up to its means, and each gradient row is exactly the
/// row the whole-set call writes for that vertex.
LossResult SoftmaxCrossEntropy(const Tensor& logits,
                               const std::vector<int32_t>& labels,
                               const std::vector<VertexId>& vertices,
                               Tensor* d_logits, int64_t denominator);

/// Top-1 accuracy over `vertices`.
double Accuracy(const Tensor& logits, const std::vector<int32_t>& labels,
                const std::vector<VertexId>& vertices);

}  // namespace hongtu
