#include "tests/testing/fixtures.h"

#include "src/datasets/synthetic.h"

namespace robogexp::testing {

Graph MakePathGraph(int n) {
  Graph g(n);
  for (NodeId u = 0; u + 1 < n; ++u) RCW_CHECK(g.AddEdge(u, u + 1).ok());
  Matrix x(n, 4);
  std::vector<Label> labels(static_cast<size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    const Label l = u < n / 2 ? 0 : 1;
    labels[static_cast<size_t>(u)] = l;
    x.at(u, l) = 1.0;
    x.at(u, 2 + l) = 0.5;
  }
  g.SetFeatures(std::move(x));
  g.SetLabels(std::move(labels), 2);
  return g;
}

Graph MakeTwoCommunityGraph() {
  // Two hub-and-satellite communities joined by two bridges. Only the hubs
  // (nodes 0 and 6) carry strong class features; satellites carry a weak
  // contrarian signal, so a satellite's prediction is decided by its
  // connection to the hub — guaranteeing that counterfactual witnesses
  // exist (removing the hub-facing edges flips the label).
  Graph g(12);
  for (NodeId c : {NodeId{0}, NodeId{6}}) {
    for (NodeId s = c + 1; s < c + 6; ++s) RCW_CHECK(g.AddEdge(c, s).ok());
    for (NodeId s = c + 1; s < c + 5; ++s) RCW_CHECK(g.AddEdge(s, s + 1).ok());
  }
  RCW_CHECK(g.AddEdge(2, 8).ok());
  RCW_CHECK(g.AddEdge(4, 10).ok());

  Matrix x(12, 8);
  std::vector<Label> labels(12);
  for (NodeId u = 0; u < 12; ++u) {
    const Label l = u < 6 ? 0 : 1;
    labels[static_cast<size_t>(u)] = l;
    if (u == 0 || u == 6) {
      x.at(u, l * 2) = 2.0;
      x.at(u, l * 2 + 1) = 2.0;
    } else {
      // Weak signal for the *other* class.
      const Label o = 1 - l;
      x.at(u, o * 2) = 0.3;
      x.at(u, 4 + (u % 4)) = 0.1;
    }
  }
  g.SetFeatures(std::move(x));
  g.SetLabels(std::move(labels), 2);
  return g;
}

std::vector<NodeId> TwoCommunitySatellites() {
  return {1, 2, 3, 4, 5, 7, 8, 9, 10, 11};
}

Graph MakeSmallSbm(uint64_t seed) {
  SbmOptions opts;
  opts.num_nodes = 240;
  opts.num_classes = 4;
  opts.avg_degree = 6.0;
  opts.homophily = 0.85;
  opts.feature_dim = 32;
  opts.signature_bits = 6;
  opts.noise = 0.02;
  opts.seed = seed;
  return MakeSbmGraph(opts);
}

namespace {

TrainedFixture MakeFixture(Graph graph, bool appnp) {
  TrainedFixture f;
  f.graph = std::make_unique<Graph>(std::move(graph));
  TrainOptions opts;
  opts.epochs = 120;
  opts.hidden_dims = {16};
  opts.seed = 42;
  f.train_nodes = SampleTrainNodes(*f.graph, 0.6, 1);
  if (appnp) {
    f.model = TrainAppnp(*f.graph, f.train_nodes, opts);
  } else {
    f.model = TrainGcn(*f.graph, f.train_nodes, opts);
  }
  return f;
}

}  // namespace

const TrainedFixture& TwoCommunityAppnp() {
  static const TrainedFixture* f =
      new TrainedFixture(MakeFixture(MakeTwoCommunityGraph(), /*appnp=*/true));
  return *f;
}

const TrainedFixture& TwoCommunityGcn() {
  static const TrainedFixture* f =
      new TrainedFixture(MakeFixture(MakeTwoCommunityGraph(), /*appnp=*/false));
  return *f;
}

const TrainedFixture& SmallSbmAppnp() {
  static const TrainedFixture* f =
      new TrainedFixture(MakeFixture(MakeSmallSbm(), /*appnp=*/true));
  return *f;
}

const TrainedFixture& SmallSbmGcn() {
  static const TrainedFixture* f =
      new TrainedFixture(MakeFixture(MakeSmallSbm(), /*appnp=*/false));
  return *f;
}

Matrix GatedModel::InferSubset(const GraphView& view, const Matrix& features,
                               const std::vector<NodeId>& nodes) const {
  Gate();
  return inner_->InferSubset(view, features, nodes);
}

std::vector<double> GatedModel::InferNode(const GraphView& view,
                                          const Matrix& features,
                                          NodeId v) const {
  ++infer_node_calls_;
  Gate();
  return inner_->InferNode(view, features, v);
}

Matrix GatedModel::InferNodes(const GraphView& view, const Matrix& features,
                              const std::vector<NodeId>& nodes) const {
  ++infer_nodes_calls_;
  Gate();
  return inner_->InferNodes(view, features, nodes);
}

void GatedModel::Arm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = true;
  entered_ = false;
  open_ = false;
}

void GatedModel::WaitEntered() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return entered_; });
}

void GatedModel::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  open_ = true;
  cv_.notify_all();
}

void GatedModel::Gate() const {
  std::unique_lock<std::mutex> lock(mu_);
  if (!armed_) return;
  armed_ = false;
  entered_ = true;
  cv_.notify_all();
  cv_.wait(lock, [&] { return open_; });
}

}  // namespace robogexp::testing
