#include "hongtu/gnn/loss.h"

#include <cmath>

namespace hongtu {

LossResult SoftmaxCrossEntropy(const Tensor& logits,
                               const std::vector<int32_t>& labels,
                               const std::vector<VertexId>& vertices,
                               Tensor* d_logits) {
  return SoftmaxCrossEntropy(logits, labels, vertices, d_logits,
                             static_cast<int64_t>(vertices.size()));
}

LossResult SoftmaxCrossEntropy(const Tensor& logits,
                               const std::vector<int32_t>& labels,
                               const std::vector<VertexId>& vertices,
                               Tensor* d_logits, int64_t denominator) {
  LossResult out;
  if (vertices.empty() || denominator <= 0) return out;
  const int64_t c = logits.cols();
  if (d_logits != nullptr) d_logits->Zero();
  const float inv_n = 1.0f / static_cast<float>(denominator);
  double loss = 0.0;
  int64_t correct = 0;
  std::vector<float> prob(static_cast<size_t>(c));
  for (VertexId v : vertices) {
    const float* row = logits.row(v);
    float mx = row[0];
    int64_t argmax = 0;
    for (int64_t k = 1; k < c; ++k) {
      if (row[k] > mx) {
        mx = row[k];
        argmax = k;
      }
    }
    double denom = 0.0;
    for (int64_t k = 0; k < c; ++k) {
      prob[k] = std::exp(row[k] - mx);
      denom += prob[k];
    }
    const float inv_d = static_cast<float>(1.0 / denom);
    const int32_t y = labels[static_cast<size_t>(v)];
    for (int64_t k = 0; k < c; ++k) prob[k] *= inv_d;
    loss -= std::log(std::max(1e-12f, prob[y]));
    if (argmax == y) ++correct;
    if (d_logits != nullptr) {
      float* drow = d_logits->row(v);
      for (int64_t k = 0; k < c; ++k) drow[k] = prob[k] * inv_n;
      drow[y] -= inv_n;
    }
  }
  out.loss = loss / static_cast<double>(denominator);
  out.accuracy =
      static_cast<double>(correct) / static_cast<double>(denominator);
  return out;
}

double Accuracy(const Tensor& logits, const std::vector<int32_t>& labels,
                const std::vector<VertexId>& vertices) {
  if (vertices.empty()) return 0.0;
  int64_t correct = 0;
  const int64_t c = logits.cols();
  for (VertexId v : vertices) {
    const float* row = logits.row(v);
    int64_t argmax = 0;
    for (int64_t k = 1; k < c; ++k) {
      if (row[k] > row[argmax]) argmax = k;
    }
    if (argmax == labels[static_cast<size_t>(v)]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(vertices.size());
}

}  // namespace hongtu
