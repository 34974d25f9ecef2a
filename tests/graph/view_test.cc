#include "src/graph/view.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tests/testing/fixtures.h"

namespace robogexp {
namespace {

Graph Ring(int n) {
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) RCW_CHECK(g.AddEdge(u, (u + 1) % n).ok());
  return g;
}

TEST(FullView, MirrorsGraph) {
  const Graph g = Ring(5);
  const FullView v(&g);
  EXPECT_EQ(v.num_nodes(), 5);
  EXPECT_EQ(v.CountEdges(), 5);
  EXPECT_TRUE(v.HasEdge(0, 4));
  EXPECT_EQ(v.Degree(2), 2);
  auto nbrs = v.Neighbors(0);
  std::sort(nbrs.begin(), nbrs.end());
  EXPECT_EQ(nbrs, (std::vector<NodeId>{1, 4}));
}

TEST(OverlayView, RemovalHidesEdge) {
  const Graph g = Ring(5);
  const FullView full(&g);
  const OverlayView o(&full, {Edge(0, 1)});
  EXPECT_FALSE(o.HasEdge(0, 1));
  EXPECT_TRUE(o.HasEdge(1, 2));
  EXPECT_EQ(o.Degree(0), 1);
  EXPECT_EQ(o.Degree(1), 1);
  EXPECT_EQ(o.CountEdges(), 4);
  EXPECT_EQ(o.num_removals(), 1);
  EXPECT_EQ(o.num_insertions(), 0);
}

TEST(OverlayView, InsertionAddsEdge) {
  const Graph g = Ring(6);
  const FullView full(&g);
  const OverlayView o(&full, {Edge(0, 3)});
  EXPECT_TRUE(o.HasEdge(0, 3));
  EXPECT_EQ(o.Degree(0), 3);
  EXPECT_EQ(o.CountEdges(), 7);
  auto nbrs = o.Neighbors(0);
  std::sort(nbrs.begin(), nbrs.end());
  EXPECT_EQ(nbrs, (std::vector<NodeId>{1, 3, 5}));
}

TEST(OverlayView, FlipIsInvolutionWhenListedTwice) {
  const Graph g = Ring(4);
  const FullView full(&g);
  const OverlayView o(&full, {Edge(0, 1), Edge(0, 1)});
  EXPECT_FALSE(o.HasEdge(0, 1));  // duplicate flips collapse to one
  EXPECT_EQ(o.num_removals(), 1);
}

TEST(OverlayView, StacksOverAnotherOverlay) {
  const Graph g = Ring(6);
  const FullView full(&g);
  const OverlayView first(&full, {Edge(0, 1)});
  const OverlayView second(&first, {Edge(1, 2), Edge(0, 3)});
  EXPECT_FALSE(second.HasEdge(0, 1));
  EXPECT_FALSE(second.HasEdge(1, 2));
  EXPECT_TRUE(second.HasEdge(0, 3));
  EXPECT_EQ(second.CountEdges(), 5);
}

TEST(EdgeSubsetView, OnlyListedEdgesExist) {
  const EdgeSubsetView v(6, {Edge(0, 1), Edge(1, 2)});
  EXPECT_TRUE(v.HasEdge(0, 1));
  EXPECT_FALSE(v.HasEdge(2, 3));
  EXPECT_EQ(v.Degree(1), 2);
  EXPECT_EQ(v.Degree(5), 0);
  EXPECT_EQ(v.CountEdges(), 2);
}

TEST(KHopBall, RadiiAreNested) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const FullView full(&g);
  const auto b1 = KHopBall(full, NodeId{1}, 1);
  const auto b2 = KHopBall(full, NodeId{1}, 2);
  EXPECT_LE(b1.size(), b2.size());
  for (NodeId u : b1) {
    EXPECT_NE(std::find(b2.begin(), b2.end(), u), b2.end());
  }
  EXPECT_EQ(b1.front(), 1);  // center first
}

TEST(KHopBall, PathGraphExactSizes) {
  const Graph g = testing::MakePathGraph(10);
  const FullView full(&g);
  EXPECT_EQ(KHopBall(full, NodeId{5}, 0).size(), 1u);
  EXPECT_EQ(KHopBall(full, NodeId{5}, 1).size(), 3u);
  EXPECT_EQ(KHopBall(full, NodeId{5}, 2).size(), 5u);
  EXPECT_EQ(KHopBall(full, NodeId{0}, 3).size(), 4u);
}

TEST(KHopBall, MultiSourceUnion) {
  const Graph g = testing::MakePathGraph(10);
  const FullView full(&g);
  const auto ball = KHopBall(full, std::vector<NodeId>{0, 9}, 1);
  EXPECT_EQ(ball.size(), 4u);  // {0,1} ∪ {8,9}
}

// Hop distance from the nearest seed for every node (-1 when unreachable).
std::vector<int> SeedDistances(const GraphView& view,
                               const std::vector<NodeId>& seeds) {
  std::vector<int> dist(static_cast<size_t>(view.num_nodes()), -1);
  std::vector<NodeId> frontier;
  for (NodeId s : seeds) {
    if (dist[static_cast<size_t>(s)] < 0) {
      dist[static_cast<size_t>(s)] = 0;
      frontier.push_back(s);
    }
  }
  for (int d = 1; !frontier.empty(); ++d) {
    std::vector<NodeId> next;
    for (NodeId u : frontier) {
      for (NodeId w : view.Neighbors(u)) {
        if (dist[static_cast<size_t>(w)] < 0) {
          dist[static_cast<size_t>(w)] = d;
          next.push_back(w);
        }
      }
    }
    frontier = std::move(next);
  }
  return dist;
}

TEST(KHopBallShells, ShellEndsCountNodesWithinEachHop) {
  const Graph sbm = testing::MakeSmallSbm();
  const Graph path = testing::MakePathGraph(10);
  Graph split(6);  // two components: 0-1-2 and 3-4-5
  for (const Edge& e : {Edge(0, 1), Edge(1, 2), Edge(3, 4), Edge(4, 5)}) {
    ASSERT_TRUE(split.AddEdge(e.u, e.v).ok());
  }
  struct Case {
    const Graph* graph;
    std::vector<NodeId> seeds;
  };
  const std::vector<Case> cases = {
      {&sbm, {0}},     {&sbm, {7, 100, 7, 239}}, {&path, {5}},
      {&path, {0, 9}}, {&split, {1}},            {&split, {0, 5}},
  };
  for (const Case& c : cases) {
    const FullView view(c.graph);
    const std::vector<int> dist = SeedDistances(view, c.seeds);
    for (int hops = 0; hops <= 6; ++hops) {
      std::vector<size_t> shell_end;
      const std::vector<NodeId> ball =
          KHopBallShells(view, c.seeds, hops, &shell_end);
      EXPECT_EQ(ball, KHopBall(view, c.seeds, hops));
      ASSERT_EQ(shell_end.size(), static_cast<size_t>(hops) + 1);
      EXPECT_EQ(shell_end.back(), ball.size());
      for (int h = 0; h <= hops; ++h) {
        if (h > 0) {
          EXPECT_LE(shell_end[h - 1], shell_end[h]);
        }
        size_t within = 0;
        for (int d : dist) within += (d >= 0 && d <= h) ? 1 : 0;
        EXPECT_EQ(shell_end[h], within) << "hops " << hops << " h " << h;
        // The first shell_end[h] ball nodes are exactly those within h hops.
        for (size_t i = 0; i < ball.size(); ++i) {
          const int d = dist[static_cast<size_t>(ball[i])];
          EXPECT_EQ(i < shell_end[h], d <= h) << "ball node " << ball[i];
        }
      }
    }
  }
}

TEST(InducedEdges, RestrictsToNodeSet) {
  const Graph g = Ring(6);
  const FullView full(&g);
  const auto edges = InducedEdges(full, {0, 1, 2, 4});
  EXPECT_EQ(edges.size(), 2u);  // (0,1), (1,2); 4 is isolated in the subset
}

TEST(IsConnected, DetectsDisconnection) {
  Graph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  EXPECT_FALSE(IsConnected(FullView(&g)));
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  EXPECT_TRUE(IsConnected(FullView(&g)));
}

TEST(OverlayView, NeighborsConsistentWithHasEdge) {
  const Graph g = testing::MakeTwoCommunityGraph();
  const FullView full(&g);
  const OverlayView o(&full, {Edge(0, 1), Edge(0, 11), Edge(2, 8)});
  for (NodeId u = 0; u < o.num_nodes(); ++u) {
    for (NodeId w : o.Neighbors(u)) {
      EXPECT_TRUE(o.HasEdge(u, w)) << u << "-" << w;
    }
    EXPECT_EQ(static_cast<int>(o.Neighbors(u).size()), o.Degree(u));
  }
}

}  // namespace
}  // namespace robogexp
