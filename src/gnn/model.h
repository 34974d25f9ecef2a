// GnnModel — the paper's fixed, deterministic inference function M(v, G).
//
// Every model evaluates over a GraphView, so the same trained weights can be
// queried on G, G \ Gs, a disturbed ~G, or the witness subgraph without
// materializing new graphs. Inference can be restricted to a node subset
// (local indexing); `InferNode` exploits the fact that an L-layer
// message-passing GNN's output at v depends only on v's L-hop ball, making a
// single-node query O(ball) instead of O(|G|). The ball comes with its hop
// shells (`InferBall`), and layer l is read only within L-1-l hops of the
// query nodes, so a model may compute each layer on fewer rows. GCN does: a
// localized query aggregates layer l (and projects layer l+1) only over the
// (L-1-l)-hop ball. Its first projection X·W_0 reads no edges, so an
// InferenceEngine computes it once over the whole graph (`ProjectFeatures`)
// and every query reads layer-0 rows from it; a direct InferNode caller
// still projects the L-hop ball itself.
#ifndef ROBOGEXP_GNN_MODEL_H_
#define ROBOGEXP_GNN_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/graph/view.h"
#include "src/la/matrix.h"

namespace robogexp {

class GnnModel {
 public:
  virtual ~GnnModel() = default;

  virtual std::string name() const = 0;
  virtual int num_layers() const = 0;
  virtual int num_classes() const = 0;
  virtual int64_t num_features() const = 0;

  /// Logits for the listed nodes (rows follow `nodes` order). Computation is
  /// restricted to `nodes` with true degrees taken from `view`; results are
  /// exact for every node whose receptive field lies inside `nodes`.
  virtual Matrix InferSubset(const GraphView& view, const Matrix& features,
                             const std::vector<NodeId>& nodes) const = 0;

  /// The model's feature-only first step over every row of `features`, or
  /// an empty matrix (the default) when the model has none. Row u depends
  /// only on row u of `features`, never on edges, so one projection serves
  /// every view over the same features (see InferBall's `projected`).
  virtual Matrix ProjectFeatures(const Matrix& features) const;

  /// Logits for the seeds of a KHopBallShells ball of radius
  /// receptive_hops(): `ball` lists the nodes in BFS order and `shell_end[h]`
  /// is the number of them within h hops of the seeds. Only the first
  /// shell_end[0] rows (the seeds, in ball order) are defined, and the result
  /// may hold only those rows. The default runs InferSubset over the whole
  /// ball; a model may skip the rows that no seed's output reads.
  /// `projected`, when not null, is ProjectFeatures(features) (indexed by
  /// node id), and a model that has a projection reads its first step from
  /// it instead of recomputing it over the ball.
  virtual Matrix InferBall(const GraphView& view, const Matrix& features,
                           const std::vector<NodeId>& ball,
                           const std::vector<size_t>& shell_end,
                           const Matrix* projected) const;

  /// Receptive-field radius used by the default InferNode (L for
  /// message-passing models; APPNP overrides node inference with PPR push).
  virtual int receptive_hops() const { return num_layers(); }

  /// True when single-node inference provably reads nothing outside the
  /// receptive_hops() ball — the property the Sec. VI inference-preserving
  /// partition relies on: a fragment replicating a receptive_hops halo can
  /// serve its owned nodes bit-identically to the whole graph. Models whose
  /// localized inference is adaptive rather than hop-bounded (APPNP's PPR
  /// push runs to tolerance, not to a radius) return false and must be
  /// served from whole-graph shards.
  virtual bool InferenceIsReceptiveLocal() const { return true; }

  /// Full-graph logits (|V| x C).
  Matrix Infer(const GraphView& view, const Matrix& features) const;

  /// Exact localized logits for a single node.
  virtual std::vector<double> InferNode(const GraphView& view,
                                        const Matrix& features,
                                        NodeId v) const;

  /// Batched localized inference: logits for each of `nodes` (rows follow
  /// `nodes` order). The default runs ONE InferBall over the union of the
  /// nodes' receptive balls; because an L-layer model's output at v only
  /// reads values computed from v's own ball, every row is bit-identical to
  /// the corresponding InferNode result. Models whose single-node path is
  /// not ball-based (APPNP's PPR push) override this to preserve their
  /// exact per-node numerics.
  virtual Matrix InferNodes(const GraphView& view, const Matrix& features,
                            const std::vector<NodeId>& nodes) const;

  /// The default InferNode / InferNodes, with `projected` handed to
  /// InferBall. A model that returns a projection from ProjectFeatures must
  /// answer InferNode and InferNodes by these defaults (GCN does), so a
  /// caller holding that projection (an InferenceEngine) may call these in
  /// place of the virtuals and get the same bits.
  std::vector<double> LocalInferNode(const GraphView& view,
                                     const Matrix& features,
                                     const Matrix* projected, NodeId v) const;
  Matrix LocalInferNodes(const GraphView& view, const Matrix& features,
                         const Matrix* projected,
                         const std::vector<NodeId>& nodes) const;

  /// True when InferNodes genuinely amortizes: one subset computation serves
  /// the whole batch. Models whose batched path is a per-node loop (APPNP)
  /// return false so the inference engine counts their batches as N
  /// invocations, not one — invocation accounting must reflect actual model
  /// work.
  virtual bool BatchedInferenceAmortizes() const { return true; }

  /// Predicted label for a single node (argmax of InferNode; determinism of
  /// the paper's M is inherited from fixed weights + ordered reductions).
  Label Predict(const GraphView& view, const Matrix& features, NodeId v) const;

  /// Per-node "evidence" logits used as the contrast vector source for
  /// PRI-based robustness reasoning. For APPNP these are the pre-propagation
  /// logits Z = XΘ + b of Eq. 2; other models fall back to their output
  /// logits on the given view (heuristic, verified by inference afterwards).
  virtual Matrix BaseLogits(const GraphView& view,
                            const Matrix& features) const;
};

/// Argmax label of a logit vector (ties break toward the smaller class, the
/// same rule every Predict path uses).
Label ArgmaxLabel(const std::vector<double>& logits);

/// Fraction of `nodes` whose prediction matches `labels`.
double Accuracy(const GnnModel& model, const GraphView& view,
                const Matrix& features, const std::vector<NodeId>& nodes,
                const std::vector<Label>& labels);

}  // namespace robogexp

#endif  // ROBOGEXP_GNN_MODEL_H_
