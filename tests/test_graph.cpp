#include "graph/graph.h"

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "graph/components.h"
#include "helpers.h"

namespace {

using msc::graph::Graph;

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.nodeCount(), 0);
  EXPECT_EQ(g.edgeCount(), 0u);
  EXPECT_DOUBLE_EQ(g.averageDegree(), 0.0);
}

TEST(Graph, AddEdgeBasics) {
  Graph g(4);
  g.addEdge(0, 1, 0.5);
  g.addEdge(1, 2, 1.5);
  EXPECT_EQ(g.edgeCount(), 2u);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(3), 0);
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_TRUE(g.hasEdge(1, 0));  // undirected
  EXPECT_FALSE(g.hasEdge(0, 2));
  EXPECT_DOUBLE_EQ(g.averageDegree(), 1.0);
}

TEST(Graph, NeighborsBothDirections) {
  Graph g(3);
  g.addEdge(0, 2, 0.7);
  const auto n0 = g.neighbors(0);
  const auto n2 = g.neighbors(2);
  ASSERT_EQ(n0.size(), 1u);
  ASSERT_EQ(n2.size(), 1u);
  EXPECT_EQ(n0[0].to, 2);
  EXPECT_DOUBLE_EQ(n0[0].length, 0.7);
  EXPECT_EQ(n2[0].to, 0);
}

TEST(Graph, ParallelEdgesAllowed) {
  Graph g(2);
  g.addEdge(0, 1, 1.0);
  g.addEdge(0, 1, 2.0);
  EXPECT_EQ(g.edgeCount(), 2u);
  EXPECT_EQ(g.degree(0), 2);
}

TEST(Graph, Validation) {
  Graph g(3);
  EXPECT_THROW(g.addEdge(0, 0, 1.0), std::invalid_argument);  // self-loop
  EXPECT_THROW(g.addEdge(0, 3, 1.0), std::out_of_range);
  EXPECT_THROW(g.addEdge(-1, 1, 1.0), std::out_of_range);
  EXPECT_THROW(g.addEdge(0, 1, -0.1), std::invalid_argument);
  EXPECT_THROW(g.addEdge(0, 1, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(g.addEdge(0, 1, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(Graph(-1), std::invalid_argument);
}

TEST(Graph, ZeroLengthEdgeAllowed) {
  Graph g(2);
  g.addEdge(0, 1, 0.0);  // shortcut edges have length 0
  EXPECT_EQ(g.edgeCount(), 1u);
}

TEST(Graph, EdgesKeepInsertionOrder) {
  Graph g(4);
  g.addEdge(2, 3, 0.1);
  g.addEdge(0, 1, 0.2);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].u, 2);
  EXPECT_EQ(edges[1].u, 0);
}

// ---------------------------------------------------------------- CSR ----

/// Each node's (to, length) arcs, in neighbors() order.
std::vector<std::vector<std::pair<int, double>>> adjacencyOf(const Graph& g) {
  std::vector<std::vector<std::pair<int, double>>> out(
      static_cast<std::size_t>(g.nodeCount()));
  for (int u = 0; u < g.nodeCount(); ++u) {
    for (const auto& arc : g.neighbors(u)) {
      out[static_cast<std::size_t>(u)].emplace_back(arc.to, arc.length);
    }
  }
  return out;
}

TEST(GraphCsr, NeighborOrderIsInsertionOrderWithInterleavedReads) {
  // Reads between the addEdge calls rebuild a stale CSR each time; every
  // node's arcs must still come out in the order their edges were added.
  Graph g(6);
  std::vector<std::vector<std::pair<int, double>>> expected(6);
  const std::vector<msc::graph::Edge> edges = {
      {3, 1, 0.5}, {0, 3, 1.0}, {1, 0, 0.25}, {3, 5, 2.0}, {1, 3, 0.75},
      {4, 3, 0.0}, {0, 5, 1.5}, {3, 1, 0.5}, {2, 4, 3.0}};
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto& e = edges[i];
    g.addEdge(e.u, e.v, e.length);
    expected[static_cast<std::size_t>(e.u)].emplace_back(e.v, e.length);
    expected[static_cast<std::size_t>(e.v)].emplace_back(e.u, e.length);
    if (i % 2 == 0) {
      ASSERT_EQ(adjacencyOf(g), expected) << "after edge " << i;
    }
    EXPECT_EQ(g.degree(e.u),
              static_cast<int>(expected[static_cast<std::size_t>(e.u)].size()));
  }
  EXPECT_EQ(adjacencyOf(g), expected);
  EXPECT_TRUE(g.hasEdge(5, 3));
  EXPECT_FALSE(g.hasEdge(2, 5));
}

TEST(GraphCsr, CopiesAndMovesKeepTheAdjacency) {
  const Graph g = msc::test::randomGraph(40, 0.1, 3);
  const auto want = adjacencyOf(g);  // g's CSR is fresh from here on

  Graph stale(40);  // a copy of a graph whose CSR was never built
  for (const auto& e : g.edges()) stale.addEdge(e.u, e.v, e.length);
  const Graph fromStale(stale);
  EXPECT_EQ(adjacencyOf(fromStale), want);

  Graph copy(g);
  EXPECT_EQ(adjacencyOf(copy), want);
  Graph assigned;
  assigned = copy;
  EXPECT_EQ(adjacencyOf(assigned), want);

  Graph moved(std::move(copy));
  EXPECT_EQ(adjacencyOf(moved), want);
  Graph moveAssigned(2);
  moveAssigned = std::move(moved);
  EXPECT_EQ(adjacencyOf(moveAssigned), want);
  EXPECT_EQ(moveAssigned.edgeCount(), g.edgeCount());

  // A copy is independent: growing it leaves the original alone.
  assigned.addEdge(0, 39, 0.5);
  EXPECT_EQ(adjacencyOf(g), want);
  EXPECT_EQ(assigned.degree(0), g.degree(0) + 1);
}

TEST(GraphCsr, ConcurrentFirstReadsOfASharedConstGraph) {
  // Labelled tsan: every thread's first read may find the CSR stale, so
  // they race to the guarded rebuild; all must see the same adjacency.
  const Graph reference = msc::test::randomGraph(300, 0.03, 9);
  const auto want = adjacencyOf(reference);
  for (int round = 0; round < 4; ++round) {
    Graph fresh(300);
    for (const auto& e : reference.edges()) fresh.addEdge(e.u, e.v, e.length);
    const Graph& shared = fresh;
    std::vector<std::vector<std::vector<std::pair<int, double>>>> seen(4);
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < seen.size(); ++t) {
      readers.emplace_back([&shared, &seen, t] { seen[t] = adjacencyOf(shared); });
    }
    for (auto& r : readers) r.join();
    for (const auto& s : seen) EXPECT_EQ(s, want);
  }
}

// --------------------------------------------------------- Components ----

TEST(Components, SingleComponent) {
  const auto g = msc::test::cycleGraph(5);
  const auto comps = msc::graph::connectedComponents(g);
  EXPECT_EQ(comps.count, 1);
  EXPECT_TRUE(comps.sameComponent(0, 4));
  EXPECT_EQ(msc::graph::largestComponentSize(g), 5);
}

TEST(Components, MultipleComponents) {
  msc::graph::Graph g(6);
  g.addEdge(0, 1, 1.0);
  g.addEdge(2, 3, 1.0);
  g.addEdge(3, 4, 1.0);
  // node 5 isolated
  const auto comps = msc::graph::connectedComponents(g);
  EXPECT_EQ(comps.count, 3);
  EXPECT_TRUE(comps.sameComponent(0, 1));
  EXPECT_TRUE(comps.sameComponent(2, 4));
  EXPECT_FALSE(comps.sameComponent(0, 2));
  EXPECT_FALSE(comps.sameComponent(4, 5));
  EXPECT_EQ(msc::graph::largestComponentSize(g), 3);
}

TEST(Components, EmptyGraph) {
  msc::graph::Graph g;
  EXPECT_EQ(msc::graph::connectedComponents(g).count, 0);
  EXPECT_EQ(msc::graph::largestComponentSize(g), 0);
}

}  // namespace
