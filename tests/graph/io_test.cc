#include "src/graph/io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "src/datasets/provenance.h"
#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(GraphIo, RoundTripsStructureFeaturesLabels) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const std::string path = TempPath("two_community.rgx");
  ASSERT_TRUE(SaveGraph(g, path).ok());
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Graph& h = loaded.value();
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.Edges(), g.Edges());
  EXPECT_EQ(h.labels(), g.labels());
  EXPECT_EQ(h.num_classes(), g.num_classes());
  ASSERT_EQ(h.num_features(), g.num_features());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (int64_t c = 0; c < g.num_features(); ++c) {
      EXPECT_DOUBLE_EQ(h.features().at(u, c), g.features().at(u, c));
    }
  }
}

TEST(GraphIo, RoundTripsNodeNames) {
  const ProvenanceGraph pg = MakeProvenanceGraph();
  const std::string path = TempPath("provenance.rgx");
  ASSERT_TRUE(SaveGraph(pg.graph, path).ok());
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().NodeName(pg.breach), "breach.sh");
  EXPECT_EQ(loaded.value().NodeName(pg.cmd), "cmd.exe");
}

TEST(GraphIo, MissingFileIsNotFound) {
  const auto r = LoadGraph("/nonexistent/definitely-missing.rgx");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(GraphIo, RejectsGarbage) {
  const std::string path = TempPath("garbage.rgx");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("e 0 1\n", f);  // data before header
    std::fclose(f);
  }
  const auto r = LoadGraph(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphIo, RejectsBadFeatureIndex) {
  const std::string path = TempPath("badfeat.rgx");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("graph 2 0 3 2\nf 0 7:1.0\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadGraph(path).ok());
}

// Writes `text` to a fresh file and returns the status LoadGraph gives it.
Status LoadGraphText(const char* name, const std::string& text) {
  const std::string path = TempPath(name);
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs(text.c_str(), f);
  std::fclose(f);
  return LoadGraph(path).status();
}

constexpr char kTwoEdgeHeader[] = "graph 4 2 3 2\ne 0 1\ne 2 3\n";

TEST(GraphIo, WellFormedTextLoads) {
  const std::string text = std::string(kTwoEdgeHeader) +
                           "l 3 1\nf 3 0:1.5 2:-2\nn 3 leaf\n";
  EXPECT_TRUE(LoadGraphText("well_formed.rgx", text).ok());
}

TEST(GraphIo, RejectsTornEdgeLine) {
  // Without a check, `e 3` read as a phantom edge 3-0.
  const Status s =
      LoadGraphText("torn_edge.rgx", "graph 4 2 3 2\ne 0 1\ne 3\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(GraphIo, RejectsTornLabelLine) {
  const Status s = LoadGraphText("torn_label.rgx",
                                 std::string(kTwoEdgeHeader) + "l 3\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(GraphIo, RejectsTornNameLine) {
  const Status s = LoadGraphText("torn_name.rgx",
                                 std::string(kTwoEdgeHeader) + "n 3\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(GraphIo, RejectsFewerEdgesThanDeclared) {
  // A file cut after its first edge line.
  const Status s = LoadGraphText("truncated.rgx", "graph 4 2 3 2\ne 0 1\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(GraphIo, RejectsUnparsableFeaturePair) {
  for (const char* pair : {"x:1", "1:y", "1:", ":1", "1x:1", "1:2.5z"}) {
    const Status s = LoadGraphText(
        "bad_pair.rgx", std::string(kTwoEdgeHeader) + "f 3 " + pair + "\n");
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << pair;
  }
}

TEST(GraphIo, RejectsEveryTruncation) {
  Graph g = testing::MakeTwoCommunityGraph();
  g.SetNodeName(3, "three");
  g.SetNodeName(9, "nine");
  const std::string path = TempPath("full.rgx");
  ASSERT_TRUE(SaveGraph(g, path).ok());
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_TRUE(LoadGraphText("uncut.rgx", text).ok());
  // Cut the file at every line boundary short of its end, the empty prefix
  // included. The label, feature and name sections declare no counts, so
  // only the end trailer tells a cut among them from a whole file.
  size_t cuts = 0;
  for (size_t len = 0; len < text.size(); len = text.find('\n', len) + 1) {
    EXPECT_FALSE(LoadGraphText("cut.rgx", text.substr(0, len)).ok())
        << "prefix of " << len << " bytes loaded:\n"
        << text.substr(0, len);
    ++cuts;
  }
  EXPECT_EQ(cuts, static_cast<size_t>(std::count(text.begin(), text.end(),
                                                 '\n')));
}

TEST(GraphIo, RejectsDataAfterEndTrailer) {
  const std::string whole =
      "rgx 1\n" + std::string(kTwoEdgeHeader) + "l 3 1\nend\n";
  EXPECT_TRUE(LoadGraphText("trailer.rgx", whole).ok());
  const Status s = LoadGraphText("after_end.rgx", whole + "l 2 1\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(GraphIo, RejectsUnknownVersionAndMisplacedVersionLine) {
  for (const std::string& text :
       {"rgx 2\n" + std::string(kTwoEdgeHeader) + "end\n",
        "rgx\n" + std::string(kTwoEdgeHeader) + "end\n",
        std::string(kTwoEdgeHeader) + "rgx 1\nend\n"}) {
    const Status s = LoadGraphText("version.rgx", text);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(GraphIo, TrainedModelAgreesOnReloadedGraph) {
  // End-to-end: inference results are identical on the reloaded graph.
  const auto& f = testing::TwoCommunityAppnp();
  const std::string path = TempPath("fixture.rgx");
  ASSERT_TRUE(SaveGraph(*f.graph, path).ok());
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok());
  const FullView orig(f.graph.get());
  const FullView redo(&loaded.value());
  for (NodeId v = 0; v < f.graph->num_nodes(); ++v) {
    EXPECT_EQ(f.model->Predict(orig, f.graph->features(), v),
              f.model->Predict(redo, loaded.value().features(), v));
  }
}

}  // namespace
}  // namespace robogexp
