#include "src/gnn/model.h"

#include <unordered_map>

namespace robogexp {

Matrix GnnModel::Infer(const GraphView& view, const Matrix& features) const {
  std::vector<NodeId> all(static_cast<size_t>(view.num_nodes()));
  for (NodeId u = 0; u < view.num_nodes(); ++u) all[static_cast<size_t>(u)] = u;
  return InferSubset(view, features, all);
}

Matrix GnnModel::ProjectFeatures(const Matrix& /*features*/) const {
  return Matrix();
}

Matrix GnnModel::InferBall(const GraphView& view, const Matrix& features,
                           const std::vector<NodeId>& ball,
                           const std::vector<size_t>& /*shell_end*/,
                           const Matrix* /*projected*/) const {
  return InferSubset(view, features, ball);
}

std::vector<double> GnnModel::InferNode(const GraphView& view,
                                        const Matrix& features,
                                        NodeId v) const {
  return LocalInferNode(view, features, nullptr, v);
}

Matrix GnnModel::InferNodes(const GraphView& view, const Matrix& features,
                            const std::vector<NodeId>& nodes) const {
  return LocalInferNodes(view, features, nullptr, nodes);
}

std::vector<double> GnnModel::LocalInferNode(const GraphView& view,
                                             const Matrix& features,
                                             const Matrix* projected,
                                             NodeId v) const {
  std::vector<size_t> shell_end;
  const std::vector<NodeId> ball =
      KHopBallShells(view, {v}, receptive_hops(), &shell_end);
  // Row 0 of the ball result is read as v's logits; that is only sound
  // because KHopBall guarantees the center is the first ball entry.
  RCW_CHECK_MSG(!ball.empty() && ball[0] == v,
                "InferNode: KHopBall must place the center first");
  const Matrix logits = InferBall(view, features, ball, shell_end, projected);
  std::vector<double> out(static_cast<size_t>(num_classes()));
  for (int c = 0; c < num_classes(); ++c) {
    out[static_cast<size_t>(c)] = logits.at(0, c);
  }
  return out;
}

Matrix GnnModel::LocalInferNodes(const GraphView& view, const Matrix& features,
                                 const Matrix* projected,
                                 const std::vector<NodeId>& nodes) const {
  Matrix out(static_cast<int64_t>(nodes.size()), num_classes());
  if (nodes.empty()) return out;
  if (nodes.size() == 1) {
    const std::vector<double> logits =
        LocalInferNode(view, features, projected, nodes[0]);
    for (int c = 0; c < num_classes(); ++c) {
      out.at(0, c) = logits[static_cast<size_t>(c)];
    }
    return out;
  }
  std::vector<size_t> shell_end;
  const std::vector<NodeId> ball =
      KHopBallShells(view, nodes, receptive_hops(), &shell_end);
  const Matrix logits = InferBall(view, features, ball, shell_end, projected);
  // The seeds are the ball's first shell_end[0] entries.
  std::unordered_map<NodeId, int64_t> row;
  row.reserve(shell_end[0] * 2);
  for (size_t i = 0; i < shell_end[0]; ++i) {
    row[ball[i]] = static_cast<int64_t>(i);
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int64_t r = row.at(nodes[i]);
    for (int c = 0; c < num_classes(); ++c) {
      out.at(static_cast<int64_t>(i), c) = logits.at(r, c);
    }
  }
  return out;
}

Label GnnModel::Predict(const GraphView& view, const Matrix& features,
                        NodeId v) const {
  return ArgmaxLabel(InferNode(view, features, v));
}

Matrix GnnModel::BaseLogits(const GraphView& view,
                            const Matrix& features) const {
  return Infer(view, features);
}

Label ArgmaxLabel(const std::vector<double>& logits) {
  RCW_CHECK(!logits.empty());
  Label best = 0;
  for (size_t c = 1; c < logits.size(); ++c) {
    if (logits[c] > logits[static_cast<size_t>(best)]) {
      best = static_cast<Label>(c);
    }
  }
  return best;
}

double Accuracy(const GnnModel& model, const GraphView& view,
                const Matrix& features, const std::vector<NodeId>& nodes,
                const std::vector<Label>& labels) {
  if (nodes.empty()) return 0.0;
  int correct = 0;
  const Matrix all = model.Infer(view, features);
  for (NodeId u : nodes) {
    Label best = 0;
    for (int c = 1; c < model.num_classes(); ++c) {
      if (all.at(u, c) > all.at(u, best)) best = c;
    }
    if (best == labels[static_cast<size_t>(u)]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(nodes.size());
}

}  // namespace robogexp
