// InferenceEngine contract tests: cached, uncached, batched, and one-shot
// paths must produce bit-identical logits across every model family, and the
// stats must account for queries, hits, and model invocations honestly.
#include "src/gnn/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/gnn/trainer.h"
#include "src/graph/partition.h"
#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

struct ModelCase {
  std::string name;
  std::function<std::unique_ptr<GnnModel>(const Graph&)> make;
};

// All five model families of the reproduction.
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

class EngineAllModelsTest : public ::testing::TestWithParam<size_t> {};

std::vector<NodeId> AllNodes(const Graph& g) {
  std::vector<NodeId> nodes(static_cast<size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) nodes[static_cast<size_t>(v)] = v;
  return nodes;
}

TEST_P(EngineAllModelsTest, BatchedInferNodesMatchesInferNodeBitwise) {
  const Graph g = testing::MakeSmallSbm();
  const auto model = AllModels()[GetParam()].make(g);
  const FullView full(&g);
  const std::vector<NodeId> nodes = {0, 7, 100, 239, 63};
  const Matrix batched = model->InferNodes(full, g.features(), nodes);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const std::vector<double> single =
        model->InferNode(full, g.features(), nodes[i]);
    for (int c = 0; c < model->num_classes(); ++c) {
      // Bit-identical, not merely close: the batched union-ball computation
      // must perform the same floating-point operations per node.
      EXPECT_EQ(batched.at(static_cast<int64_t>(i), c),
                single[static_cast<size_t>(c)])
          << AllModels()[GetParam()].name << " node " << nodes[i] << " class "
          << c;
    }
  }
}

TEST_P(EngineAllModelsTest, CachedAndUncachedLogitsAreBitIdentical) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const auto model = AllModels()[GetParam()].make(g);
  EngineOptions uncached_opts;
  uncached_opts.cache = false;
  uncached_opts.batch = false;
  InferenceEngine cached(model.get(), &g);
  InferenceEngine uncached(model.get(), &g, uncached_opts);

  const std::vector<NodeId> nodes = AllNodes(g);
  cached.Warm(InferenceEngine::kFullView, nodes);  // batched fill
  for (NodeId v : nodes) {
    const auto a = cached.Logits(InferenceEngine::kFullView, v);
    const auto b = uncached.Logits(InferenceEngine::kFullView, v);
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) {
      EXPECT_EQ(a[c], b[c]) << AllModels()[GetParam()].name << " node " << v;
    }
    EXPECT_EQ(cached.Predict(InferenceEngine::kFullView, v),
              uncached.Predict(InferenceEngine::kFullView, v));
  }
  // Cached served everything after one batch; uncached paid per query.
  EXPECT_EQ(cached.stats().cache_hits,
            static_cast<int64_t>(2 * nodes.size()));  // Logits + Predict
  EXPECT_EQ(uncached.stats().cache_hits, 0);
  EXPECT_EQ(uncached.stats().model_invocations,
            static_cast<int64_t>(2 * nodes.size()));  // Logits + Predict
  EXPECT_LT(cached.stats().model_invocations,
            uncached.stats().model_invocations);
}

TEST_P(EngineAllModelsTest, CacheIsConsistentOnOverlayViews) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const auto model = AllModels()[GetParam()].make(g);
  InferenceEngine engine(model.get(), &g);
  const OverlayView overlay(&engine.full_view(),
                            {Edge(0, 1), Edge(2, 8), Edge(1, 7)});
  InferenceEngine::ScopedView slot(&engine, &overlay);
  const std::vector<NodeId> nodes = AllNodes(g);
  engine.Warm(slot.id(), nodes);
  for (NodeId v : nodes) {
    const auto cached_row = engine.Logits(slot.id(), v);
    const auto direct = model->InferNode(overlay, g.features(), v);
    for (size_t c = 0; c < cached_row.size(); ++c) {
      EXPECT_EQ(cached_row[c], direct[c]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, EngineAllModelsTest,
                         ::testing::Values(0, 1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return AllModels()[info.param].name;
                         });

TEST(InferenceEngine, StatsAccountQueriesHitsAndInvocations) {
  const auto& f = testing::TwoCommunityGcn();
  InferenceEngine engine(f.model.get(), f.graph.get());
  engine.Logits(InferenceEngine::kFullView, 1);  // miss
  engine.Logits(InferenceEngine::kFullView, 1);  // hit
  engine.Predict(InferenceEngine::kFullView, 1); // hit
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.node_queries, 3);
  EXPECT_EQ(s.cache_hits, 2);
  EXPECT_EQ(s.model_invocations, 1);
}

TEST(InferenceEngine, WarmBatchesMissesIntoOneInvocation) {
  const auto& f = testing::TwoCommunityGcn();
  InferenceEngine engine(f.model.get(), f.graph.get());
  const std::vector<NodeId> nodes = {1, 2, 3, 4, 5};
  engine.Warm(InferenceEngine::kFullView, nodes);
  EXPECT_EQ(engine.stats().model_invocations, 1);
  EXPECT_EQ(engine.stats().batched_nodes, 5);
  // Re-warming the same nodes is free.
  engine.Warm(InferenceEngine::kFullView, nodes);
  EXPECT_EQ(engine.stats().model_invocations, 1);
  for (NodeId v : nodes) engine.Logits(InferenceEngine::kFullView, v);
  EXPECT_EQ(engine.stats().cache_hits, 5);
  EXPECT_EQ(engine.stats().model_invocations, 1);
}

TEST(InferenceEngine, BindInvalidatesCachedLogits) {
  const auto& f = testing::TwoCommunityGcn();
  InferenceEngine engine(f.model.get(), f.graph.get());
  const OverlayView a(&engine.full_view(), {Edge(0, 1)});
  const OverlayView b(&engine.full_view(), {Edge(0, 2)});
  const InferenceEngine::ViewId id = engine.Register(&a);
  const auto on_a = engine.Logits(id, 1);
  EXPECT_EQ(engine.stats().model_invocations, 1);
  engine.Bind(id, &b);  // edge set changed -> cache must drop
  const auto on_b = engine.Logits(id, 1);
  EXPECT_EQ(engine.stats().model_invocations, 2);
  EXPECT_EQ(engine.stats().cache_hits, 0);
  // And the recomputed logits match direct inference on the new view.
  const auto direct = f.model->InferNode(b, f.graph->features(), 1);
  for (size_t c = 0; c < on_b.size(); ++c) EXPECT_EQ(on_b[c], direct[c]);
}

TEST(InferenceEngine, WarmOverlayBatchesAndMatchesPerNodeOverlayLogits) {
  const auto& f = testing::TwoCommunityGcn();
  InferenceEngine engine(f.model.get(), f.graph.get());
  InferenceEngine reference(f.model.get(), f.graph.get());
  const std::vector<Edge> flips = {Edge(0, 1), Edge(2, 8)};
  const std::vector<NodeId> nodes = {1, 2, 3, 4};
  engine.WarmOverlay(flips, nodes);
  EXPECT_EQ(engine.stats().model_invocations, 1);
  EXPECT_EQ(engine.stats().batched_nodes, 4);
  for (NodeId v : nodes) {
    EXPECT_EQ(engine.LogitsOverlay(flips, v),
              reference.LogitsOverlay(flips, v));
  }
  // All four reads were cache hits on the batched results.
  EXPECT_EQ(engine.stats().model_invocations, 1);
  EXPECT_EQ(engine.stats().cache_hits, 4);
  // Re-warming (also under a reordered, duplicated spelling of the same
  // flip set) is free: the canonical key matches.
  engine.WarmOverlay({Edge(2, 8), Edge(0, 1), Edge(0, 1)}, nodes);
  EXPECT_EQ(engine.stats().model_invocations, 1);
}

TEST(InferenceEngine, OverlayCacheEvictsOldestFlipSetsFifo) {
  const auto& f = testing::TwoCommunityGcn();
  EngineOptions opts;
  opts.max_overlay_entries = 4;
  InferenceEngine engine(f.model.get(), f.graph.get(), opts);
  const std::vector<Edge> flip_sets[] = {
      {Edge(0, 1)}, {Edge(0, 2)}, {Edge(0, 3)}, {Edge(0, 4)}, {Edge(0, 5)}};
  // Fill the cache to its cap: four flip sets, one entry each.
  for (int i = 0; i < 4; ++i) engine.LogitsOverlay(flip_sets[i], 1);
  EXPECT_EQ(engine.stats().model_invocations, 4);
  // A fifth insert evicts only the oldest flip set, not the whole cache.
  engine.LogitsOverlay(flip_sets[4], 1);
  EXPECT_EQ(engine.stats().model_invocations, 5);
  const int64_t hits_before = engine.stats().cache_hits;
  // Sets 2-5 are still warm ...
  for (int i = 1; i < 5; ++i) engine.LogitsOverlay(flip_sets[i], 1);
  EXPECT_EQ(engine.stats().model_invocations, 5);
  EXPECT_EQ(engine.stats().cache_hits, hits_before + 4);
  // ... and only the evicted oldest set recomputes.
  engine.LogitsOverlay(flip_sets[0], 1);
  EXPECT_EQ(engine.stats().model_invocations, 6);
}

TEST(InferenceEngine, OverlayEvictionSkipsStaleFifoEntriesAfterInvalidation) {
  // Regression: a flip set invalidated and later re-warmed must age from its
  // re-creation, not from its original queue position — otherwise eviction
  // drops the hot re-warmed set while genuinely older ones survive.
  const auto& f = testing::TwoCommunityGcn();
  EngineOptions opts;
  opts.max_overlay_entries = 3;
  InferenceEngine engine(f.model.get(), f.graph.get(), opts);
  const std::vector<Edge> set_f = {Edge(0, 1)};
  const std::vector<Edge> set_g = {Edge(0, 2)};
  const std::vector<Edge> set_h = {Edge(0, 3)};
  const std::vector<Edge> set_i = {Edge(0, 4)};
  engine.LogitsOverlay(set_f, 1);          // F enters the FIFO first ...
  engine.InvalidateOverlayNodes({1});      // ... and is dropped entirely.
  engine.LogitsOverlay(set_g, 1);
  engine.LogitsOverlay(set_h, 1);
  engine.LogitsOverlay(set_f, 1);          // F re-created: now the newest.
  // Cache is at its cap of 3 (G, H, F); the next insert must evict G — the
  // oldest live set — not F via its stale original FIFO slot.
  engine.LogitsOverlay(set_i, 1);
  const int64_t calls = engine.stats().model_invocations;
  engine.LogitsOverlay(set_f, 1);  // hit: F survived
  EXPECT_EQ(engine.stats().model_invocations, calls);
  engine.LogitsOverlay(set_g, 1);  // miss: G was evicted
  EXPECT_EQ(engine.stats().model_invocations, calls + 1);
}

TEST(InferenceEngine, EphemeralPredictionsAreCountedNotCached) {
  const auto& f = testing::TwoCommunityGcn();
  InferenceEngine engine(f.model.get(), f.graph.get());
  const OverlayView disturbed(&engine.full_view(), {Edge(0, 1)});
  engine.PredictOn(disturbed, 1);
  engine.PredictOn(disturbed, 1);
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.model_invocations, 2);
  EXPECT_EQ(s.cache_hits, 0);
}

// Regression: GnnModel::InferNode reads row 0 of the subset result as the
// center's logits, which is only sound because KHopBall puts the center
// first. Pin that ordering contract down.
TEST(KHopBall, CenterIsAlwaysFirstAndOrderIsDeterministicBfs) {
  const Graph g = testing::MakeSmallSbm();
  const FullView full(&g);
  for (NodeId v : {NodeId{0}, NodeId{17}, NodeId{100}, NodeId{239}}) {
    for (int hops : {0, 1, 2, 3}) {
      const std::vector<NodeId> ball = KHopBall(full, v, hops);
      ASSERT_FALSE(ball.empty());
      EXPECT_EQ(ball[0], v) << "center must be the first ball entry";
      // Deterministic: two computations agree element-wise.
      EXPECT_EQ(ball, KHopBall(full, v, hops));
    }
  }
  // Multi-seed variant: seeds first, in the given order.
  const std::vector<NodeId> seeds = {42, 7, 199};
  const std::vector<NodeId> ball = KHopBall(full, seeds, 2);
  ASSERT_GE(ball.size(), seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) EXPECT_EQ(ball[i], seeds[i]);
}

// A GCN engine reads layer-0 rows from its one projection X·W_0 instead of
// projecting each query's ball. Every row it serves, through every entry
// point and with the cache on or off, must still equal the whole-view
// Infer row bit for bit.
std::unique_ptr<GnnModel> ThreeLayerGcn(const Graph& g) {
  TrainOptions opts;
  opts.epochs = 30;
  opts.hidden_dims = {8, 8};
  auto model = TrainGcn(g, SampleTrainNodes(g, 0.5, 1), opts);
  RCW_CHECK(model->num_layers() == 3);
  return model;
}

void ExpectRowEq(const std::vector<double>& got, const Matrix& want, NodeId v,
                 const std::string& label) {
  ASSERT_EQ(static_cast<int64_t>(got.size()), want.cols()) << label;
  for (size_t c = 0; c < got.size(); ++c) {
    ASSERT_EQ(got[c], want.at(v, static_cast<int64_t>(c)))
        << label << " node " << v << " class " << c;
  }
}

/// Logits (and Warm when caching) on slot `id`, whose view is `view`.
void ExpectSlotRowsEqualInfer(InferenceEngine* engine,
                              InferenceEngine::ViewId id,
                              const GraphView& view, const Graph& g,
                              const std::string& label) {
  const Matrix want = engine->model().Infer(view, g.features());
  const std::vector<NodeId> nodes = AllNodes(g);
  engine->Warm(id, nodes);
  for (NodeId v : nodes) {
    ExpectRowEq(engine->Logits(id, v), want, v, label + " Logits");
  }
}

TEST(EngineProjection, GcnEngineRowsEqualWholeViewInferOnEveryView) {
  const Graph g = testing::MakeSmallSbm();
  const auto model = ThreeLayerGcn(g);
  ASSERT_FALSE(model->ProjectFeatures(g.features()).empty());
  const FullView full(&g);

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
  std::vector<Edge> kept;
  for (size_t i = 0; i < edges.size(); i += 2) kept.push_back(edges[i]);
  const EdgeSubsetView subset(g.num_nodes(), kept);
  const std::vector<std::pair<const GraphView*, std::string>> slot_views = {
      {&overlay, "overlay"}, {&subset, "edge subset"}};

  for (const bool cache : {false, true}) {
    const std::string mode = cache ? "cached " : "uncached ";
    EngineOptions opts;
    opts.cache = cache;
    InferenceEngine engine(model.get(), &g, opts);
    ExpectSlotRowsEqualInfer(&engine, InferenceEngine::kFullView, full, g,
                             mode + "full");
    for (const auto& [view, name] : slot_views) {
      InferenceEngine::ScopedView slot(&engine, view);
      ExpectSlotRowsEqualInfer(&engine, slot.id(), *view, g, mode + name);
      const Matrix want = model->Infer(*view, g.features());
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ExpectRowEq(engine.LogitsOn(*view, v), want, v,
                    mode + name + " LogitsOn");
      }
    }
    // The content-addressed overlay cache builds its own OverlayView.
    const Matrix want = model->Infer(overlay, g.features());
    engine.WarmOverlay(flips, AllNodes(g));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ExpectRowEq(engine.LogitsOverlay(flips, v), want, v,
                  mode + "LogitsOverlay");
    }
  }
}

TEST(EngineProjection, FragmentEngineRowsEqualFragmentAndWholeGraphInfer) {
  const Graph g = testing::MakeSmallSbm();
  const auto model = ThreeLayerGcn(g);
  const Matrix whole = model->Infer(FullView(&g), g.features());
  const auto frags = EdgeCutPartition(g, 3, model->num_layers(), 7);
  for (const Fragment& frag : frags) {
    const FragmentView view(&g, frag);
    for (const bool cache : {false, true}) {
      EngineOptions opts;
      opts.cache = cache;
      InferenceEngine engine(model.get(), &g, &view, opts);
      const std::string label = "fragment " + std::to_string(frag.id) +
                                (cache ? " cached" : " uncached");
      ExpectSlotRowsEqualInfer(&engine, InferenceEngine::kFullView, view, g,
                               label);
      // A halo of L hops serves owned nodes as the whole graph does.
      for (NodeId v : frag.owned_nodes) {
        ExpectRowEq(engine.Logits(InferenceEngine::kFullView, v), whole, v,
                    label + " owned");
      }
    }
  }
}

// A forwarding model has no projection of its own, so the engine must keep
// calling its InferNode / InferNodes at every entry point.
TEST(EngineProjection, ForwardingModelStillSeesEveryInferNodeCall) {
  const auto& f = testing::SmallSbmGcn();
  testing::GatedModel gated(f.model.get());
  ASSERT_TRUE(gated.ProjectFeatures(f.graph->features()).empty());
  InferenceEngine engine(&gated, f.graph.get());
  const FullView full(f.graph.get());
  const std::vector<Edge> flips = {Edge(0, 1)};
  const std::vector<NodeId> batch = {3, 4, 5};

  engine.Logits(InferenceEngine::kFullView, 2);
  EXPECT_EQ(gated.infer_node_calls(), 1);
  engine.Warm(InferenceEngine::kFullView, batch);
  EXPECT_EQ(gated.infer_nodes_calls(), 1);
  engine.LogitsOn(full, 2);
  EXPECT_EQ(gated.infer_node_calls(), 2);
  engine.LogitsOverlay(flips, 2);
  EXPECT_EQ(gated.infer_node_calls(), 3);
  engine.WarmOverlay(flips, batch);
  EXPECT_EQ(gated.infer_nodes_calls(), 2);
  EXPECT_EQ(engine.Logits(InferenceEngine::kFullView, 4),
            f.model->InferNode(full, f.graph->features(), 4));
  EXPECT_EQ(gated.infer_node_calls(), 3) << "a cache hit calls no model";
  EXPECT_EQ(engine.stats().model_invocations, 5);
}

// How long a test lets a thread that must stay blocked try to run on.
constexpr auto kBlockedFor = std::chrono::milliseconds(100);

// A cache miss runs the model outside the engine lock on the slot's view.
// Rebinding or releasing the slot must not return (so the caller must not
// free the old view) while that inference still reads it.
TEST(EngineViewPinning, BindAndReleaseWaitForAnInferenceOnTheOldView) {
  const auto& f = testing::TwoCommunityGcn();
  testing::GatedModel gated(f.model.get());
  InferenceEngine engine(&gated, f.graph.get());
  const FullView full(f.graph.get());
  auto old_view =
      std::make_unique<OverlayView>(&full, std::vector<Edge>{Edge(0, 1)});
  const OverlayView new_view(&full, {Edge(0, 2)});
  for (const bool release : {false, true}) {
    const InferenceEngine::ViewId id = engine.Register(old_view.get());
    gated.Arm();
    std::thread reader([&] { engine.Logits(id, 1); });
    gated.WaitEntered();
    std::atomic<bool> returned{false};
    std::thread unbinder([&] {
      if (release) {
        engine.Release(id);
      } else {
        engine.Bind(id, &new_view);
      }
      returned = true;
    });
    std::this_thread::sleep_for(kBlockedFor);
    EXPECT_FALSE(returned.load())
        << (release ? "Release" : "Bind") << " returned during an inference";
    gated.Open();
    reader.join();
    unbinder.join();
    EXPECT_TRUE(returned.load());
    if (!release) {
      EXPECT_EQ(engine.Logits(id, 1),
                f.model->InferNode(new_view, f.graph->features(), 1));
      engine.Release(id);
    }
  }
}

TEST(EngineViewPinning, MutateBaseWaitsForInferenceAndHoldsNewOnesBack) {
  const auto& f = testing::TwoCommunityGcn();
  testing::GatedModel gated(f.model.get());
  Graph graph = *f.graph;
  InferenceEngine engine(&gated, &graph);
  gated.Arm();
  std::thread reader([&] { engine.Logits(InferenceEngine::kFullView, 1); });
  gated.WaitEntered();
  std::atomic<bool> mutated{false};
  std::atomic<bool> late_read_done{false};
  std::thread late_reader;
  std::thread writer([&] {
    engine.MutateBase([&] {
      EXPECT_TRUE(graph.AddEdge(1, 7).ok());
      // An inference that starts now must wait for the mutation to finish.
      late_reader = std::thread([&] {
        engine.LogitsOn(FullView(&graph), 2);
        late_read_done = true;
      });
      std::this_thread::sleep_for(kBlockedFor);
      EXPECT_FALSE(late_read_done.load()) << "inference ran during MutateBase";
      mutated = true;
    });
  });
  std::this_thread::sleep_for(kBlockedFor);
  EXPECT_FALSE(mutated.load()) << "MutateBase ran during an inference";
  gated.Open();
  reader.join();
  writer.join();
  late_reader.join();
  EXPECT_TRUE(mutated.load());
  EXPECT_TRUE(late_read_done.load());
}

}  // namespace
}  // namespace robogexp
