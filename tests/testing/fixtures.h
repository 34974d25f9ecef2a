// Shared deterministic test fixtures: small graphs and cached trained models.
#ifndef ROBOGEXP_TESTS_TESTING_FIXTURES_H_
#define ROBOGEXP_TESTS_TESTING_FIXTURES_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/gnn/trainer.h"
#include "src/graph/graph.h"

namespace robogexp::testing {

/// Path graph 0-1-...-n-1 with 2-class features (first half / second half).
Graph MakePathGraph(int n);

/// Two hub-and-satellite communities (classes 0 and 1) joined by two
/// bridges; only hubs 0 and 6 carry strong class features, so satellite
/// predictions are neighborhood-driven (CWs exist). Deterministic.
Graph MakeTwoCommunityGraph();

/// The satellite (non-hub) nodes of MakeTwoCommunityGraph — the nodes with
/// meaningful counterfactual witnesses.
std::vector<NodeId> TwoCommunitySatellites();

/// A mid-size SBM (240 nodes, 4 classes) for heavier unit tests.
Graph MakeSmallSbm(uint64_t seed = 3);

struct TrainedFixture {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<GnnModel> model;
  std::vector<NodeId> train_nodes;
};

/// Cached APPNP trained on MakeTwoCommunityGraph (near-perfect accuracy).
const TrainedFixture& TwoCommunityAppnp();

/// Cached GCN trained on MakeTwoCommunityGraph.
const TrainedFixture& TwoCommunityGcn();

/// Cached APPNP trained on MakeSmallSbm.
const TrainedFixture& SmallSbmAppnp();

/// Cached GCN trained on MakeSmallSbm.
const TrainedFixture& SmallSbmGcn();

/// Forwards every call to `inner`, except that the first inference after
/// Arm() announces itself and then blocks until Open(). A test uses it to
/// hold one inference in progress while another thread acts. It counts the
/// InferNode and InferNodes calls it forwards.
class GatedModel final : public GnnModel {
 public:
  explicit GatedModel(const GnnModel* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  int num_layers() const override { return inner_->num_layers(); }
  int num_classes() const override { return inner_->num_classes(); }
  int64_t num_features() const override { return inner_->num_features(); }
  int receptive_hops() const override { return inner_->receptive_hops(); }
  bool InferenceIsReceptiveLocal() const override {
    return inner_->InferenceIsReceptiveLocal();
  }
  bool BatchedInferenceAmortizes() const override {
    return inner_->BatchedInferenceAmortizes();
  }

  Matrix InferSubset(const GraphView& view, const Matrix& features,
                     const std::vector<NodeId>& nodes) const override;
  std::vector<double> InferNode(const GraphView& view, const Matrix& features,
                                NodeId v) const override;
  Matrix InferNodes(const GraphView& view, const Matrix& features,
                    const std::vector<NodeId>& nodes) const override;
  Matrix BaseLogits(const GraphView& view,
                    const Matrix& features) const override {
    return inner_->BaseLogits(view, features);
  }

  /// The next inference will block.
  void Arm();
  /// Waits until the armed inference has started.
  void WaitEntered();
  /// Lets the blocked inference (and every later one) run.
  void Open();

  int infer_node_calls() const { return infer_node_calls_.load(); }
  int infer_nodes_calls() const { return infer_nodes_calls_.load(); }

 private:
  void Gate() const;

  const GnnModel* inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool armed_ = false;
  mutable bool entered_ = false;
  bool open_ = false;
  mutable std::atomic<int> infer_node_calls_{0};
  mutable std::atomic<int> infer_nodes_calls_{0};
};

}  // namespace robogexp::testing

#endif  // ROBOGEXP_TESTS_TESTING_FIXTURES_H_
