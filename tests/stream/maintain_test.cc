#include "src/stream/maintain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "src/explain/verify.h"
#include "src/stream/update.h"
#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

WitnessConfig Config(const Graph* graph, const GnnModel* model,
                     std::vector<NodeId> nodes, int k = 2, int b = 1) {
  WitnessConfig cfg;
  cfg.graph = graph;
  cfg.model = model;
  cfg.test_nodes = std::move(nodes);
  cfg.k = k;
  cfg.local_budget = b;
  cfg.hop_radius = 2;
  return cfg;
}

/// Per-test-node RCW verdict of `witness` on cfg's (current) graph.
std::vector<std::string> Verdicts(const WitnessConfig& cfg,
                                  const Witness& witness) {
  std::vector<std::string> out;
  for (NodeId v : cfg.test_nodes) {
    WitnessConfig one = cfg;
    one.test_nodes = {v};
    out.push_back(VerifyRcw(one, witness).ok ? "ok" : "fail");
  }
  return out;
}

TEST(Maintain, ApplyBeforeInitializeFails) {
  const auto& f = testing::TwoCommunityAppnp();
  Graph graph = *f.graph;
  WitnessMaintainer m(&graph, Config(&graph, f.model.get(), {1}), {});
  EXPECT_FALSE(m.Apply(UpdateBatch{}).ok());
}

TEST(Maintain, DetectsOutsideMutation) {
  const auto& f = testing::TwoCommunityAppnp();
  Graph graph = *f.graph;
  WitnessMaintainer m(&graph, Config(&graph, f.model.get(), {1}), {});
  m.Initialize();
  ASSERT_TRUE(graph.RemoveEdge(0, 1).ok());  // behind the maintainer's back
  const auto r = m.Apply(UpdateBatch{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Maintain, UntouchedBatchCostsNoInference) {
  const auto& f = testing::SmallSbmAppnp();
  Graph graph = *f.graph;
  const auto nodes = SelectExplainableTestNodes(*f.model, *f.graph, 1, {}, 33);
  ASSERT_EQ(nodes.size(), 1u);
  const NodeId test_node = nodes[0];
  const WitnessConfig cfg = Config(&graph, f.model.get(), {test_node});
  WitnessMaintainer m(&graph, cfg, {});
  ASSERT_TRUE(m.Initialize().ok);

  // Find an edge entirely outside the test node's maintenance ball.
  const FullView full(&graph);
  const std::vector<NodeId> ball =
      KHopBall(full, test_node, MaintenanceRadius(cfg));
  const std::unordered_set<NodeId> near(ball.begin(), ball.end());
  Edge victim(kInvalidNode, kInvalidNode);
  for (const Edge& e : graph.Edges()) {
    if (near.count(e.u) == 0 && near.count(e.v) == 0) {
      victim = e;
      break;
    }
  }
  ASSERT_NE(victim.u, kInvalidNode)
      << "fixture too dense: every edge is near node 0";

  UpdateBatch far;
  far.Delete(victim.u, victim.v);
  const auto r = m.Apply(far);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().action, MaintainAction::kUntouched);
  EXPECT_EQ(r.value().affected_tests, 0);
  EXPECT_EQ(r.value().inference_calls, 0);
  EXPECT_FALSE(graph.HasEdge(victim.u, victim.v))
      << "the batch must still be applied";
}

TEST(Maintain, NoOpBatchIsUntouched) {
  const auto& f = testing::TwoCommunityAppnp();
  Graph graph = *f.graph;
  WitnessMaintainer m(&graph, Config(&graph, f.model.get(), {1}), {});
  m.Initialize();
  UpdateBatch noop;
  noop.Delete(0, 11);  // not an edge
  const auto r = m.Apply(noop);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().action, MaintainAction::kUntouched);
  EXPECT_EQ(r.value().rejected, 1);
  EXPECT_EQ(r.value().inference_calls, 0);
}

TEST(Maintain, CertifiedPathConsumesBudgetAndKeepsVerdicts) {
  const auto& f = testing::TwoCommunityAppnp();
  Graph graph = *f.graph;
  const WitnessConfig cfg = Config(&graph, f.model.get(), {1}, /*k=*/3);
  WitnessMaintainer m(&graph, cfg, {});
  ASSERT_TRUE(m.Initialize().ok);
  ASSERT_EQ(m.RemainingBudget(1), 3);

  // Remove a non-witness edge inside node 1's ball: a 1-flip disturbance the
  // certificate already quantified over.
  Edge victim(kInvalidNode, kInvalidNode);
  for (const Edge& e : graph.Edges()) {
    const bool near = (e.u == 1 || e.v == 1 || e.u == 2 || e.v == 2);
    if (near && !m.witness().HasEdge(e.u, e.v)) {
      victim = e;
      break;
    }
  }
  ASSERT_NE(victim.u, kInvalidNode) << "fixture has no certifiable edge";

  UpdateBatch batch;
  batch.Delete(victim.u, victim.v);
  const auto r = m.Apply(batch);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().action, MaintainAction::kCertified);
  EXPECT_TRUE(r.value().ok);
  EXPECT_EQ(m.RemainingBudget(1), 2);
  EXPECT_TRUE(VerifyRcw(cfg, m.witness()).ok);

  // Re-inserting the same pair refunds the budget (flip toggling).
  UpdateBatch undo;
  undo.Insert(victim.u, victim.v);
  const auto r2 = m.Apply(undo);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(m.RemainingBudget(1), 3);
}

TEST(Maintain, DeletedWitnessEdgeIsPrunedAndResecured) {
  const auto& f = testing::TwoCommunityAppnp();
  Graph graph = *f.graph;
  const WitnessConfig cfg = Config(&graph, f.model.get(), {1, 2});
  WitnessMaintainer m(&graph, cfg, {});
  ASSERT_TRUE(m.Initialize().ok);
  ASSERT_GE(m.witness().num_edges(), 1u);
  const Edge victim = m.witness().Edges()[0];

  UpdateBatch batch;
  batch.Delete(victim.u, victim.v);
  const auto r = m.Apply(batch);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().action, MaintainAction::kUntouched);
  EXPECT_NE(r.value().action, MaintainAction::kCertified)
      << "flipping a protected pair is outside the certificate";
  EXPECT_FALSE(m.witness().HasEdge(victim.u, victim.v))
      << "deleted edges must not survive in the witness";
  for (const Edge& e : m.witness().Edges()) {
    EXPECT_TRUE(graph.HasEdge(e.u, e.v))
        << "witness edge (" << e.u << "," << e.v << ") not in the graph";
  }
}

TEST(Maintain, AdoptRevalidatesAnExternalWitness) {
  const auto& f = testing::TwoCommunityAppnp();
  Graph graph = *f.graph;
  const WitnessConfig cfg = Config(&graph, f.model.get(), {1, 7});
  const GenerateResult gen = GenerateRcw(cfg);
  ASSERT_TRUE(gen.unsecured.empty());

  WitnessMaintainer m(&graph, cfg, {});
  const MaintainReport r = m.Adopt(gen.witness);
  EXPECT_EQ(r.action, MaintainAction::kInitialized);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.resecured.empty()) << "a verified witness needs no repair";
  EXPECT_TRUE(VerifyRcw(cfg, m.witness()).ok);
}

/// The headline equivalence property: replaying a random update stream,
/// maintained witnesses must verify equivalently to regenerating from
/// scratch on every snapshot — sound (every node the maintainer claims
/// covered actually verifies) and never worse (every node from-scratch
/// generation can certify, maintenance certifies too). Exact per-node
/// equality is deliberately not asserted: the generator is heuristic, and a
/// warm-started re-secure can legitimately certify a node the from-scratch
/// search gives up on.
TEST(Maintain, RandomizedEquivalenceWithRegenerationOn50Batches) {
  const auto& f = testing::TwoCommunityAppnp();
  Graph graph = *f.graph;
  const WitnessConfig cfg = Config(&graph, f.model.get(), {1, 2, 7});

  StreamSampleOptions sopts;
  sopts.num_batches = 50;
  sopts.ops_per_batch = 1;
  sopts.insert_fraction = 0.35;
  sopts.focus_nodes = cfg.test_nodes;
  sopts.hop_radius = 2;
  Rng rng(23);
  const auto stream = SampleUpdateStream(graph, sopts, &rng);
  ASSERT_EQ(stream.size(), 50u);

  WitnessMaintainer m(&graph, cfg, {});
  m.Initialize();
  for (size_t b = 0; b < stream.size(); ++b) {
    const auto r = m.Apply(stream[b]);
    ASSERT_TRUE(r.ok()) << "batch " << b << ": " << r.status().ToString();
    // Scratch baseline on the same (already updated) graph.
    const GenerateResult scratch = GenerateRcw(cfg);
    const auto maintained = Verdicts(cfg, m.witness());
    const auto regenerated = Verdicts(cfg, scratch.witness);
    const auto uncovered = m.unsecured();
    for (size_t i = 0; i < cfg.test_nodes.size(); ++i) {
      const NodeId v = cfg.test_nodes[i];
      const bool covered =
          std::find(uncovered.begin(), uncovered.end(), v) == uncovered.end();
      if (covered) {
        EXPECT_EQ(maintained[i], "ok")
            << "batch " << b << " node " << v << " ("
            << MaintainActionName(r.value().action)
            << "): claimed coverage must verify";
      }
      EXPECT_TRUE(maintained[i] == "ok" || regenerated[i] == "fail")
          << "batch " << b << " node " << v
          << ": maintenance must never verify worse than regeneration";
    }
  }
}

TEST(Maintain, ParallelResecureKeepsVerdicts) {
  const auto& f = testing::TwoCommunityAppnp();
  Graph seq_graph = *f.graph;
  Graph par_graph = *f.graph;
  const std::vector<NodeId> nodes = {1, 2, 7, 8};

  StreamSampleOptions sopts;
  sopts.num_batches = 10;
  sopts.ops_per_batch = 2;
  sopts.insert_fraction = 0.3;
  sopts.focus_nodes = nodes;
  sopts.hop_radius = 2;
  Rng rng(41);
  const auto stream = SampleUpdateStream(seq_graph, sopts, &rng);

  MaintainOptions seq_opts;
  MaintainOptions par_opts;
  par_opts.num_threads = 4;
  const WitnessConfig seq_cfg = Config(&seq_graph, f.model.get(), nodes);
  const WitnessConfig par_cfg = Config(&par_graph, f.model.get(), nodes);
  WitnessMaintainer seq(&seq_graph, seq_cfg, seq_opts);
  WitnessMaintainer par(&par_graph, par_cfg, par_opts);
  seq.Initialize();
  par.Initialize();
  for (size_t b = 0; b < stream.size(); ++b) {
    ASSERT_TRUE(seq.Apply(stream[b]).ok());
    ASSERT_TRUE(par.Apply(stream[b]).ok());
    EXPECT_EQ(Verdicts(seq_cfg, seq.witness()),
              Verdicts(par_cfg, par.witness()))
        << "batch " << b;
  }
}

TEST(Maintain, AsyncBatchingKeepsWitnessesAndActionsIdentical) {
  // The async batching front reroutes the maintainer's warms and the
  // verifier's per-contrast checks through a scheduler; every decision is
  // value-driven on bit-identical logits, so the maintained witness and the
  // per-batch actions must match the plain path exactly.
  const auto& f = testing::TwoCommunityAppnp();
  Graph plain_graph = *f.graph;
  Graph async_graph = *f.graph;
  const std::vector<NodeId> nodes = {1, 2, 7, 8};

  StreamSampleOptions sopts;
  sopts.num_batches = 8;
  sopts.ops_per_batch = 2;
  sopts.insert_fraction = 0.3;
  sopts.focus_nodes = nodes;
  sopts.hop_radius = 2;
  Rng rng(43);
  const auto stream = SampleUpdateStream(plain_graph, sopts, &rng);

  MaintainOptions plain_opts;
  MaintainOptions async_opts;
  async_opts.async_batching = true;
  async_opts.scheduler.deadline_us = 300;
  const WitnessConfig plain_cfg = Config(&plain_graph, f.model.get(), nodes);
  const WitnessConfig async_cfg = Config(&async_graph, f.model.get(), nodes);
  WitnessMaintainer plain(&plain_graph, plain_cfg, plain_opts);
  WitnessMaintainer async_m(&async_graph, async_cfg, async_opts);
  ASSERT_EQ(async_m.scheduler() != nullptr, true);
  plain.Initialize();
  async_m.Initialize();
  EXPECT_TRUE(plain.witness() == async_m.witness());
  for (size_t b = 0; b < stream.size(); ++b) {
    const auto pr = plain.Apply(stream[b]);
    const auto ar = async_m.Apply(stream[b]);
    ASSERT_TRUE(pr.ok());
    ASSERT_TRUE(ar.ok());
    EXPECT_EQ(pr.value().action, ar.value().action) << "batch " << b;
    EXPECT_EQ(pr.value().resecured, ar.value().resecured) << "batch " << b;
    EXPECT_EQ(pr.value().unsecured, ar.value().unsecured) << "batch " << b;
    EXPECT_TRUE(plain.witness() == async_m.witness()) << "batch " << b;
  }
}

// Regression for the maintained-serving bit-identity caveat: APPNP's PPR
// push is not receptive-field-local, so per-ball invalidation is unsound
// for it — a base update can move logits of nodes far outside every
// touched ball. Apply() must escalate to full-view invalidation so every
// cached full-view entry re-reads bitwise-fresh afterwards.
TEST(Maintain, NonReceptiveLocalModelServesFreshLogitsEverywhereAfterApply) {
  const auto& f = testing::TwoCommunityAppnp();
  ASSERT_FALSE(f.model->InferenceIsReceptiveLocal());
  Graph graph = *f.graph;
  const WitnessConfig cfg = Config(&graph, f.model.get(), {1});
  WitnessMaintainer m(&graph, cfg, {});
  ASSERT_TRUE(m.Initialize().ok);

  // Warm the full view for EVERY node — including nodes outside any
  // maintenance ball of the coming batch — so stale survivors would be
  // served from cache below.
  std::vector<NodeId> all;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) all.push_back(v);
  m.engine().Warm(InferenceEngine::kFullView, all);

  // Delete a community bridge: APPNP propagation reaches across it, so
  // logits move at nodes far outside any touched ball.
  UpdateBatch batch;
  batch.Delete(4, 10);
  ASSERT_TRUE(graph.HasEdge(4, 10));
  ASSERT_TRUE(m.Apply(batch).ok());

  InferenceEngine fresh(cfg.model, &graph);
  for (NodeId v : all) {
    EXPECT_EQ(m.engine().Logits(InferenceEngine::kFullView, v),
              fresh.Logits(InferenceEngine::kFullView, v))
        << "stale cached logits at node " << v;
  }
}

/// Records Apply()'s event stream for the epoch-sequence test.
struct RecordingListener : MaintenanceListener {
  std::vector<std::string> events;
  std::vector<MaintenanceEpoch> opened;

  void EpochOpened(const MaintenanceEpoch& epoch) override {
    events.push_back("opened");
    opened.push_back(epoch);
  }
  void EpochBaseSecured(uint64_t) override {
    events.push_back("base_secured");
  }
  void EpochRoundSecured(uint64_t, const std::vector<NodeId>&) override {
    events.push_back("round_secured");
  }
  void EpochClosed(uint64_t) override { events.push_back("closed"); }
};

TEST(Maintain, ApplyEmitsOpenedBaseSecuredClosedInOrder) {
  const auto& f = testing::TwoCommunityGcn();
  Graph graph = *f.graph;
  const WitnessConfig cfg = Config(&graph, f.model.get(), {1, 7});
  WitnessMaintainer m(&graph, cfg, {});
  ASSERT_TRUE(m.Initialize().ok);

  RecordingListener listener;
  m.AddListener(&listener);

  // A batch inside node 1's ball: a full epoch must run Opened →
  // BaseSecured → (RoundSecured)* → Closed, with the published ball
  // matching the report's invalidation count.
  UpdateBatch batch;
  batch.Delete(1, 2);
  const auto r = m.Apply(batch);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  ASSERT_GE(listener.events.size(), 3u);
  EXPECT_EQ(listener.events.front(), "opened");
  EXPECT_EQ(listener.events[1], "base_secured");
  EXPECT_EQ(listener.events.back(), "closed");
  for (size_t i = 2; i + 1 < listener.events.size(); ++i) {
    EXPECT_EQ(listener.events[i], "round_secured") << "event " << i;
  }
  ASSERT_EQ(listener.opened.size(), 1u);
  EXPECT_GT(listener.opened[0].id, 0u);
  EXPECT_FALSE(listener.opened[0].whole_graph);  // GCN is receptive-local
  EXPECT_EQ(static_cast<int>(listener.opened[0].ball.size()),
            r.value().ball_nodes);

  // An untouched batch far from every ball opens an epoch too (the commit
  // still mutates the base graph), and closes it in order.
  listener.events.clear();
  listener.opened.clear();
  m.RemoveListener(&listener);
  const auto r2 = m.Apply(UpdateBatch{});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(listener.events.empty()) << "removed listener still notified";
}

// A serving reader may miss into inference on the maintained graph after
// its ticket completed, outside any epoch's admission control. Apply() must
// not change the graph under that inference (a torn adjacency list can send
// it out of bounds), so the commit waits for it.
TEST(Maintain, ApplyDoesNotMutateTheGraphUnderARunningInference) {
  const auto& f = testing::TwoCommunityGcn();
  testing::GatedModel gated(f.model.get());
  Graph graph = *f.graph;
  WitnessMaintainer m(&graph, Config(&graph, &gated, {1}), {});
  m.Initialize();
  m.engine().Invalidate(InferenceEngine::kFullView);
  const uint64_t version = graph.mutation_version();
  gated.Arm();
  std::thread reader([&] { m.engine().Logits(InferenceEngine::kFullView, 2); });
  gated.WaitEntered();
  UpdateBatch batch;
  batch.Insert(2, 7);
  std::optional<StatusOr<MaintainReport>> applied;
  std::thread applier([&] { applied.emplace(m.Apply(batch)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(graph.mutation_version(), version)
      << "Apply changed the graph while an inference read it";
  gated.Open();
  reader.join();
  applier.join();
  ASSERT_TRUE(applied.has_value() && applied->ok());
  EXPECT_TRUE(graph.HasEdge(2, 7));
}

}  // namespace
}  // namespace robogexp
