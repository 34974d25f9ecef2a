// Model behaviour shared across all four GNNs: shape contracts, determinism
// (the paper's "fixed, deterministic M"), and the exactness of localized
// single-node inference (InferNode == full-graph Infer).
#include <gtest/gtest.h>

#include <memory>

#include "src/gnn/trainer.h"
#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

struct ModelCase {
  std::string name;
  std::function<std::unique_ptr<GnnModel>(const Graph&)> make;
};

std::vector<ModelCase> AllModels() {
  TrainOptions quick;
  quick.epochs = 30;
  quick.hidden_dims = {8};
  return {
      {"GCN",
       [quick](const Graph& g) {
         return TrainGcn(g, SampleTrainNodes(g, 0.5, 1), quick);
       }},
      {"APPNP",
       [quick](const Graph& g) {
         return TrainAppnp(g, SampleTrainNodes(g, 0.5, 1), quick);
       }},
      {"SAGE",
       [quick](const Graph& g) {
         return TrainSage(g, SampleTrainNodes(g, 0.5, 1), quick);
       }},
      {"GIN",
       [quick](const Graph& g) {
         return TrainGin(g, SampleTrainNodes(g, 0.5, 1), quick);
       }},
      {"GAT",
       [](const Graph& g) {
         return MakeRandomGat(g.num_features(), 8, g.num_classes(), 99);
       }},
  };
}

class AllModelsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AllModelsTest, InferShapeMatches) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const auto model = AllModels()[GetParam()].make(g);
  const FullView full(&g);
  const Matrix logits = model->Infer(full, g.features());
  EXPECT_EQ(logits.rows(), g.num_nodes());
  EXPECT_EQ(logits.cols(), g.num_classes());
  EXPECT_TRUE(logits.AllFinite());
}

TEST_P(AllModelsTest, InferenceIsDeterministic) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const auto model = AllModels()[GetParam()].make(g);
  const FullView full(&g);
  const Matrix a = model->Infer(full, g.features());
  const Matrix b = model->Infer(full, g.features());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) {
      EXPECT_DOUBLE_EQ(a.at(i, j), b.at(i, j));
    }
  }
}

TEST_P(AllModelsTest, LocalizedInferNodeMatchesFullInference) {
  const Graph g = testing::MakeSmallSbm();
  const auto model = AllModels()[GetParam()].make(g);
  const FullView full(&g);
  const Matrix all = model->Infer(full, g.features());
  // Message-passing models are exact, GCN bit for bit; APPNP's push is
  // exact to its residual threshold, so allow that slack.
  const std::string name = AllModels()[GetParam()].name;
  const double tol = name == "APPNP" ? 5e-4 : 1e-6;
  for (NodeId v : {NodeId{0}, NodeId{7}, NodeId{100}, NodeId{239}}) {
    const std::vector<double> local = model->InferNode(full, g.features(), v);
    for (int c = 0; c < model->num_classes(); ++c) {
      if (name == "GCN") {
        EXPECT_EQ(local[static_cast<size_t>(c)], all.at(v, c))
            << "node " << v << " class " << c;
      } else {
        EXPECT_NEAR(local[static_cast<size_t>(c)], all.at(v, c), tol)
            << name << " node " << v << " class " << c;
      }
    }
  }
}

TEST_P(AllModelsTest, LocalizedInferenceExactOnOverlays) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const auto model = AllModels()[GetParam()].make(g);
  const FullView full(&g);
  const OverlayView overlay(&full, {Edge(0, 1), Edge(2, 8), Edge(1, 7)});
  const Matrix all = model->Infer(overlay, g.features());
  const double tol = AllModels()[GetParam()].name == "APPNP" ? 5e-4 : 1e-6;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::vector<double> local =
        model->InferNode(overlay, g.features(), v);
    for (int c = 0; c < model->num_classes(); ++c) {
      EXPECT_NEAR(local[static_cast<size_t>(c)], all.at(v, c), tol);
    }
  }
}

TEST_P(AllModelsTest, PredictIsArgmaxOfInferNode) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const auto model = AllModels()[GetParam()].make(g);
  const FullView full(&g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto logits = model->InferNode(full, g.features(), v);
    Label best = 0;
    for (int c = 1; c < model->num_classes(); ++c) {
      if (logits[static_cast<size_t>(c)] > logits[static_cast<size_t>(best)]) {
        best = c;
      }
    }
    EXPECT_EQ(model->Predict(full, g.features(), v), best);
  }
}

TEST_P(AllModelsTest, IsolatedNodeInferenceIsDefined) {
  // The paper's "trivial case" M(v, v): on the empty-edge view every model
  // must produce finite logits from the node's own features.
  const Graph g = testing::MakeTwoCommunityGraph();
  const auto model = AllModels()[GetParam()].make(g);
  const EdgeSubsetView isolated(g.num_nodes(), {});
  const auto logits = model->InferNode(isolated, g.features(), NodeId{3});
  for (double v : logits) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Models, AllModelsTest,
                         ::testing::Values(0, 1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return AllModels()[info.param].name;
                         });

// Localized GCN inference computes each layer only on the hop shells that
// the query nodes read. Every computed row must still sum the same operands
// in the same order as a whole-graph pass, so the rows are bit-identical.
void ExpectGcnLocalRowsEqualInfer(const GnnModel& model, const GraphView& view,
                                  const Matrix& features,
                                  const std::string& label) {
  const Matrix all = model.Infer(view, features);
  const NodeId n = view.num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    const std::vector<double> local = model.InferNode(view, features, v);
    for (int c = 0; c < model.num_classes(); ++c) {
      ASSERT_EQ(local[static_cast<size_t>(c)], all.at(v, c))
          << label << " InferNode node " << v << " class " << c;
    }
  }
  // Multi-seed batches: scattered seeds, one repeated, several sharing balls.
  for (NodeId start = 0; start < n; start += 5) {
    const std::vector<NodeId> seeds = {start, (start + 37) % n, (start + 1) % n,
                                       (start + 113) % n, start};
    const Matrix rows = model.InferNodes(view, features, seeds);
    for (size_t i = 0; i < seeds.size(); ++i) {
      for (int c = 0; c < model.num_classes(); ++c) {
        ASSERT_EQ(rows.at(static_cast<int64_t>(i), c), all.at(seeds[i], c))
            << label << " InferNodes seed " << seeds[i] << " class " << c;
      }
    }
  }
}

TEST(Gcn, LocalizedInferenceIsBitIdenticalOnEveryView) {
  const Graph g = testing::MakeSmallSbm();
  TrainOptions opts;
  opts.epochs = 30;
  opts.hidden_dims = {8, 8};  // three layers: four hop shells
  const auto model = TrainGcn(g, SampleTrainNodes(g, 0.5, 1), opts);
  ASSERT_EQ(model->num_layers(), 3);
  const FullView full(&g);
  ExpectGcnLocalRowsEqualInfer(*model, full, g.features(), "full");

  // Overlay with deletions and insertions.
  const std::vector<Edge> edges = g.Edges();
  std::vector<Edge> flips = {edges[0], edges[edges.size() / 2], edges.back()};
  for (NodeId u = 0, added = 0; added < 4; u += 17) {
    const NodeId w = (u * 7 + 50) % g.num_nodes();
    if (u != w && !g.HasEdge(u, w)) {
      flips.emplace_back(u, w);
      ++added;
    }
  }
  const OverlayView overlay(&full, flips);
  ASSERT_EQ(overlay.num_removals(), 3);
  ASSERT_EQ(overlay.num_insertions(), 4);
  ExpectGcnLocalRowsEqualInfer(*model, overlay, g.features(), "overlay");

  // Every other edge: many nodes lose part of their neighbourhood.
  std::vector<Edge> kept;
  for (size_t i = 0; i < edges.size(); i += 2) kept.push_back(edges[i]);
  const EdgeSubsetView subset(g.num_nodes(), kept);
  ExpectGcnLocalRowsEqualInfer(*model, subset, g.features(), "edge subset");
}

// The engine hands GCN its whole-graph projection X·W_0; layer 0 then reads
// rows of it instead of projecting the ball, and must produce the same bits.
TEST(Gcn, InferBallWithProjectionMatchesInferBallWithout) {
  const Graph g = testing::MakeSmallSbm();
  TrainOptions opts;
  opts.epochs = 30;
  opts.hidden_dims = {8, 8};
  const auto model = TrainGcn(g, SampleTrainNodes(g, 0.5, 1), opts);
  const Matrix projected = model->ProjectFeatures(g.features());
  ASSERT_EQ(projected.rows(), g.num_nodes());
  ASSERT_EQ(projected.cols(), 8);
  const FullView full(&g);
  const std::vector<Edge> edges = g.Edges();
  const OverlayView overlay(&full, {edges[0], edges[edges.size() / 3],
                                    Edge(0, 120), Edge(5, 200)});
  for (const GraphView* view : {static_cast<const GraphView*>(&full),
                                static_cast<const GraphView*>(&overlay)}) {
    for (NodeId start = 0; start < g.num_nodes(); start += 3) {
      const std::vector<NodeId> seeds = {start, (start + 101) % g.num_nodes()};
      std::vector<size_t> shell_end;
      const std::vector<NodeId> ball =
          KHopBallShells(*view, seeds, model->receptive_hops(), &shell_end);
      const Matrix plain =
          model->InferBall(*view, g.features(), ball, shell_end, nullptr);
      const Matrix read =
          model->InferBall(*view, g.features(), ball, shell_end, &projected);
      ASSERT_EQ(read.rows(), plain.rows());
      for (size_t i = 0; i < shell_end[0]; ++i) {
        for (int c = 0; c < model->num_classes(); ++c) {
          ASSERT_EQ(read.at(static_cast<int64_t>(i), c),
                    plain.at(static_cast<int64_t>(i), c))
              << "seed " << ball[i] << " class " << c;
        }
      }
    }
  }
}

TEST(Gcn, RemovingBridgeChangesSatellitePrediction) {
  const auto& f = testing::TwoCommunityAppnp();
  const FullView full(f.graph.get());
  // Satellite 1 is anchored to hub 0 only through community edges; cutting
  // its hub link and ring links must eventually flip it (its own features
  // lean contrarian).
  const OverlayView cut(&full,
                        {Edge(0, 1), Edge(1, 2)});
  const Label before = f.model->Predict(full, f.graph->features(), 1);
  const Label after = f.model->Predict(cut, f.graph->features(), 1);
  EXPECT_EQ(before, 0);
  EXPECT_NE(before, after);
}

TEST(Appnp, BaseLogitsAreStructureIndependent) {
  const auto& f = testing::TwoCommunityAppnp();
  const auto* appnp = dynamic_cast<const AppnpModel*>(f.model.get());
  ASSERT_NE(appnp, nullptr);
  const FullView full(f.graph.get());
  const OverlayView cut(&full, {Edge(0, 1)});
  const Matrix h1 = appnp->BaseLogits(full, f.graph->features());
  const Matrix h2 = appnp->BaseLogits(cut, f.graph->features());
  for (int64_t i = 0; i < h1.rows(); ++i) {
    for (int64_t j = 0; j < h1.cols(); ++j) {
      EXPECT_DOUBLE_EQ(h1.at(i, j), h2.at(i, j));
    }
  }
  // And BaseLogitsRow agrees with the matrix form.
  const auto row = appnp->BaseLogitsRow(f.graph->features(), 5);
  for (int c = 0; c < appnp->num_classes(); ++c) {
    EXPECT_NEAR(row[static_cast<size_t>(c)], h1.at(5, c), 1e-12);
  }
}

}  // namespace
}  // namespace robogexp
