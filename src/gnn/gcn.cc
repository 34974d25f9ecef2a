#include "src/gnn/gcn.h"

#include <cmath>
#include <unordered_map>

namespace robogexp {

GcnModel::GcnModel(std::vector<Matrix> weights, std::vector<Matrix> biases)
    : weights_(std::move(weights)), biases_(std::move(biases)) {
  RCW_CHECK(!weights_.empty());
  RCW_CHECK(weights_.size() == biases_.size());
  for (size_t i = 0; i + 1 < weights_.size(); ++i) {
    RCW_CHECK(weights_[i].cols() == weights_[i + 1].rows());
  }
}

Matrix GcnModel::InferSubset(const GraphView& view, const Matrix& features,
                             const std::vector<NodeId>& nodes) const {
  return InferBall(view, features, nodes,
                   std::vector<size_t>(weights_.size() + 1, nodes.size()),
                   /*projected=*/nullptr);
}

Matrix GcnModel::ProjectFeatures(const Matrix& features) const {
  return Matrix::Multiply(features, weights_.front());
}

Matrix GcnModel::InferBall(const GraphView& view, const Matrix& features,
                           const std::vector<NodeId>& ball,
                           const std::vector<size_t>& shell_end,
                           const Matrix* projected) const {
  const size_t num_layers = weights_.size();
  const size_t n = ball.size();
  RCW_CHECK(shell_end.size() == num_layers + 1 && shell_end.back() == n);
  RCW_CHECK(projected == nullptr ||
            (projected->rows() == features.rows() &&
             projected->cols() == weights_.front().cols()));
  std::unordered_map<NodeId, size_t> local;
  local.reserve(n * 2);
  for (size_t i = 0; i < n; ++i) local[ball[i]] = i;

  // True normalized degrees of every row; local adjacency (restricted to the
  // ball) only for the rows the first layer aggregates, the widest shell.
  const size_t n_agg = shell_end[num_layers - 1];
  std::vector<std::vector<size_t>> nbrs_local(n_agg);
  std::vector<double> inv_sqrt_deg(n);
  std::vector<NodeId> nbrs;
  for (size_t i = 0; i < n; ++i) {
    const NodeId u = ball[i];
    inv_sqrt_deg[i] = 1.0 / std::sqrt(static_cast<double>(view.Degree(u) + 1));
    if (i >= n_agg) continue;
    nbrs.clear();
    view.AppendNeighbors(u, &nbrs);
    for (NodeId w : nbrs) {
      auto it = local.find(w);
      if (it != local.end()) nbrs_local[i].push_back(it->second);
    }
  }

  // H = features rows of the ball, needed only to project layer 0 here.
  Matrix h;
  if (projected == nullptr) {
    h = Matrix(static_cast<int64_t>(n), features.cols());
    for (size_t i = 0; i < n; ++i) {
      const double* src = features.Row(ball[i]);
      double* dst = h.Row(static_cast<int64_t>(i));
      for (int64_t c = 0; c < features.cols(); ++c) dst[c] = src[c];
    }
  }

  // h holds shell_end[L-layer] rows on entry to `layer` (none on entry to
  // layer 0 when it reads the projection); a row that aggregates reads only
  // rows one hop further out, all of which t holds.
  for (size_t layer = 0; layer < num_layers; ++layer) {
    const bool read_projection = layer == 0 && projected != nullptr;
    Matrix t;
    if (!read_projection) t = Matrix::Multiply(h, weights_[layer]);
    // Row j of this layer's projection, in ball order.
    auto t_row = [&](size_t j) {
      return read_projection ? projected->Row(ball[j])
                             : t.Row(static_cast<int64_t>(j));
    };
    const int64_t cols = weights_[layer].cols();
    const size_t rows = shell_end[num_layers - 1 - layer];
    Matrix agg(static_cast<int64_t>(rows), cols);
    for (size_t i = 0; i < rows; ++i) {
      double* out = agg.Row(static_cast<int64_t>(i));
      // Self-loop term: Â includes I, normalization 1/d̂_i.
      const double self_w = inv_sqrt_deg[i] * inv_sqrt_deg[i];
      const double* self_row = t_row(i);
      for (int64_t c = 0; c < cols; ++c) out[c] = self_w * self_row[c];
      for (size_t j : nbrs_local[i]) {
        const double w = inv_sqrt_deg[i] * inv_sqrt_deg[j];
        const double* row = t_row(j);
        for (int64_t c = 0; c < cols; ++c) out[c] += w * row[c];
      }
    }
    agg.AddRowVectorInPlace(biases_[layer]);
    if (layer + 1 < num_layers) agg.ReluInPlace();
    h = std::move(agg);
  }
  return h;
}

}  // namespace robogexp
