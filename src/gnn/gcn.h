// Graph Convolutional Network (Kipf & Welling), the paper's experimental
// classifier (3 convolution layers, embedding dimension 128 — Sec. VII):
//     X_i = ReLU( D̂^{-1/2} Â D̂^{-1/2} X_{i-1} Θ_i ),   Â = A + I   (Eq. 1)
// with a linear final layer producing class logits.
#ifndef ROBOGEXP_GNN_GCN_H_
#define ROBOGEXP_GNN_GCN_H_

#include <vector>

#include "src/gnn/model.h"

namespace robogexp {

class GcnModel final : public GnnModel {
 public:
  /// `weights[i]` has shape dims[i] x dims[i+1]; `biases[i]` is 1 x dims[i+1].
  /// dims[0] = num input features, dims.back() = num classes.
  GcnModel(std::vector<Matrix> weights, std::vector<Matrix> biases);

  std::string name() const override { return "GCN"; }
  int num_layers() const override { return static_cast<int>(weights_.size()); }
  int num_classes() const override {
    return static_cast<int>(weights_.back().cols());
  }
  int64_t num_features() const override { return weights_.front().rows(); }

  /// InferBall with every shell ending at |nodes|: all layers on all rows.
  Matrix InferSubset(const GraphView& view, const Matrix& features,
                     const std::vector<NodeId>& nodes) const override;

  /// X·W_0, the first layer's projection before aggregation.
  Matrix ProjectFeatures(const Matrix& features) const override;

  /// Of the L layers, layer l aggregates only the first shell_end[L-1-l]
  /// rows, so it projects only the shell_end[L-l] rows those read. A row
  /// within L-1 hops has every neighbour inside the ball, in AppendNeighbors
  /// order, so each computed row sums the same operands in the same order as
  /// a whole-graph pass and the result is bit-identical to it. With
  /// `projected`, layer 0 reads row ball[j] of it instead of projecting the
  /// ball: Matrix::Multiply computes row u from row u of X alone, so the
  /// rows are the same bits.
  Matrix InferBall(const GraphView& view, const Matrix& features,
                   const std::vector<NodeId>& ball,
                   const std::vector<size_t>& shell_end,
                   const Matrix* projected) const override;

  std::vector<Matrix>& mutable_weights() { return weights_; }
  std::vector<Matrix>& mutable_biases() { return biases_; }
  const std::vector<Matrix>& weights() const { return weights_; }
  const std::vector<Matrix>& biases() const { return biases_; }

 private:
  std::vector<Matrix> weights_;
  std::vector<Matrix> biases_;
};

}  // namespace robogexp

#endif  // ROBOGEXP_GNN_GCN_H_
