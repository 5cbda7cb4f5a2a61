#include "graph/dijkstra.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "gen/grid.h"
#include "gen/random_geometric.h"
#include "gen/watts_strogatz.h"
#include "graph/apsp.h"
#include "helpers.h"
#include "reference.h"
#include "util/rng.h"

namespace {

using msc::graph::dijkstra;
using msc::graph::Graph;
using msc::graph::kInfDist;

TEST(Dijkstra, LineGraphDistances) {
  const auto g = msc::test::lineGraph(5, 2.0);
  const auto tree = dijkstra(g, 0);
  for (int v = 0; v < 5; ++v) {
    EXPECT_DOUBLE_EQ(tree.dist[static_cast<std::size_t>(v)], 2.0 * v);
  }
}

TEST(Dijkstra, PrefersShorterDetour) {
  // 0-1 direct cost 10; 0-2-1 cost 3.
  Graph g(3);
  g.addEdge(0, 1, 10.0);
  g.addEdge(0, 2, 1.0);
  g.addEdge(2, 1, 2.0);
  const auto tree = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.dist[1], 3.0);
  EXPECT_EQ(tree.parent[1], 2);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  Graph g(4);
  g.addEdge(0, 1, 1.0);
  const auto tree = dijkstra(g, 0);
  EXPECT_EQ(tree.dist[2], kInfDist);
  EXPECT_EQ(tree.dist[3], kInfDist);
  EXPECT_EQ(tree.parent[2], -1);
}

TEST(Dijkstra, ZeroLengthEdges) {
  Graph g(3);
  g.addEdge(0, 1, 0.0);
  g.addEdge(1, 2, 0.0);
  const auto tree = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.dist[2], 0.0);
}

TEST(Dijkstra, SourceValidation) {
  Graph g(2);
  EXPECT_THROW(dijkstra(g, 2), std::out_of_range);
  EXPECT_THROW(dijkstra(g, -1), std::out_of_range);
}

TEST(DijkstraBounded, RespectsLimitAndIsExactWithin) {
  const auto g = msc::test::lineGraph(10, 1.0);
  const auto bounded = msc::graph::dijkstraBounded(g, 0, 4.5);
  for (int v = 0; v <= 4; ++v) {
    EXPECT_DOUBLE_EQ(bounded.dist[static_cast<std::size_t>(v)], 1.0 * v);
  }
  for (int v = 5; v < 10; ++v) {
    EXPECT_EQ(bounded.dist[static_cast<std::size_t>(v)], kInfDist);
  }
  EXPECT_THROW(msc::graph::dijkstraBounded(g, 0, -1.0), std::invalid_argument);
}

TEST(DijkstraDistance, PointToPoint) {
  const auto g = msc::test::cycleGraph(6, 1.0);
  EXPECT_DOUBLE_EQ(msc::graph::dijkstraDistance(g, 0, 3), 3.0);
  EXPECT_DOUBLE_EQ(msc::graph::dijkstraDistance(g, 0, 5), 1.0);  // wrap
  EXPECT_DOUBLE_EQ(msc::graph::dijkstraDistance(g, 2, 2), 0.0);
}

TEST(ExtractPath, ReconstructsNodeSequence) {
  Graph g(4);
  g.addEdge(0, 1, 1.0);
  g.addEdge(1, 2, 1.0);
  g.addEdge(2, 3, 1.0);
  g.addEdge(0, 3, 10.0);
  const auto tree = dijkstra(g, 0);
  const auto path = msc::graph::extractPath(tree, 0, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<msc::graph::NodeId>{0, 1, 2, 3}));
}

TEST(ExtractPath, UnreachableReturnsNullopt) {
  Graph g(3);
  g.addEdge(0, 1, 1.0);
  const auto tree = dijkstra(g, 0);
  EXPECT_FALSE(msc::graph::extractPath(tree, 0, 2).has_value());
}

// ----------------------------------------------------------- Property ----

class DijkstraVsFloyd : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DijkstraVsFloyd, ApspStrategiesAgree) {
  const auto g = msc::test::randomGraph(40, 0.08, GetParam());
  const auto viaDijkstra = msc::graph::allPairsDistances(g);
  const auto viaFloyd = msc::graph::allPairsDistancesFloydWarshall(g);
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < 40; ++j) {
      if (viaFloyd(i, j) == kInfDist) {
        EXPECT_EQ(viaDijkstra(i, j), kInfDist);
      } else {
        EXPECT_NEAR(viaDijkstra(i, j), viaFloyd(i, j), 1e-9);
      }
    }
  }
}

TEST_P(DijkstraVsFloyd, MatrixIsSymmetricWithZeroDiagonal) {
  const auto g = msc::test::randomGraph(30, 0.1, GetParam());
  const auto d = msc::graph::allPairsDistances(g);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_DOUBLE_EQ(d(i, i), 0.0);
    for (std::size_t j = 0; j < 30; ++j) EXPECT_EQ(d(i, j), d(j, i));
  }
}

TEST_P(DijkstraVsFloyd, TriangleInequality) {
  const auto g = msc::test::randomGraph(25, 0.15, GetParam() + 1000);
  const auto d = msc::graph::allPairsDistances(g);
  for (std::size_t i = 0; i < 25; ++i) {
    for (std::size_t j = 0; j < 25; ++j) {
      for (std::size_t k = 0; k < 25; ++k) {
        if (d(i, k) == kInfDist || d(k, j) == kInfDist) continue;
        EXPECT_LE(d(i, j), d(i, k) + d(k, j) + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraVsFloyd,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------------------ Bit identity ----

// Every entry point of the kernel against the lazy-heap reference loop
// (tests/reference.h): the same distance bits and the same parents.

::testing::AssertionResult sameBits(const std::vector<double>& got,
                                    const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": " << std::hexfloat << got[i] << " vs "
             << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// The median finite entry of a row (its source's 0 included).
double medianFinite(const std::vector<double>& row) {
  std::vector<double> finite;
  for (const double d : row) {
    if (d != kInfDist) finite.push_back(d);
  }
  std::sort(finite.begin(), finite.end());
  return finite[finite.size() / 2];
}

/// One graph per generator plus the shapes that stress tie-breaking:
/// a grid (every length equal), zero-length and parallel edges, and a
/// graph of several components with isolated nodes.
std::vector<msc::test::GenCase> kernelGraphs(std::uint64_t seed) {
  std::vector<msc::test::GenCase> cases;
  {
    msc::gen::RandomGeometricConfig cfg;
    cfg.nodes = 80;
    cfg.radius = 0.2;
    cfg.seed = seed;
    cases.push_back({"rg", msc::gen::randomGeometric(cfg).graph});
  }
  cases.push_back({"er", msc::test::randomGraph(70, 0.06, seed)});
  {
    msc::gen::BarabasiAlbertConfig cfg;
    cfg.nodes = 70;
    cfg.seed = seed;
    cases.push_back({"ba", msc::gen::barabasiAlbert(cfg)});
  }
  {
    msc::gen::WattsStrogatzConfig cfg;
    cfg.nodes = 64;
    cfg.seed = seed;
    cases.push_back({"ws", msc::gen::wattsStrogatz(cfg)});
  }
  {
    msc::gen::GridConfig cfg;
    cfg.width = 8;
    cfg.height = 6 + static_cast<int>(seed % 3);
    cases.push_back({"grid", msc::gen::grid(cfg).graph});
  }
  {
    // Parallel copies of existing edges (equal, shorter and longer) and
    // zero-length edges between random nodes.
    Graph g = msc::test::randomGraph(60, 0.07, seed + 100);
    msc::util::Rng rng(seed);
    const std::vector<msc::graph::Edge> edges(g.edges().begin(),
                                              g.edges().end());
    for (int i = 0; i < 20 && !edges.empty(); ++i) {
      const auto& e = edges[rng.below(edges.size())];
      const double scale = (i % 3 == 0) ? 1.0 : (i % 3 == 1 ? 0.5 : 2.0);
      g.addEdge(e.v, e.u, e.length * scale);
    }
    for (int i = 0; i < 12; ++i) {
      const auto u = static_cast<msc::graph::NodeId>(rng.below(60));
      const auto v = static_cast<msc::graph::NodeId>(rng.below(60));
      if (u == v) continue;
      g.addEdge(u, v, 0.0);
      if (i % 4 == 0) g.addEdge(u, v, 0.0);  // a parallel zero edge
    }
    cases.push_back({"zero_parallel", std::move(g)});
  }
  {
    // Two random components side by side, then isolated nodes.
    const Graph a = msc::test::randomGraph(30, 0.12, seed + 200);
    const Graph b = msc::test::randomGraph(25, 0.12, seed + 300);
    Graph g(30 + 25 + 5);
    for (const auto& e : a.edges()) g.addEdge(e.u, e.v, e.length);
    for (const auto& e : b.edges()) g.addEdge(e.u + 30, e.v + 30, e.length);
    cases.push_back({"disconnected", std::move(g)});
  }
  return cases;
}

class DijkstraBitIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DijkstraBitIdentity, EveryEntryPointMatchesTheLazyHeapLoop) {
  using msc::test::lazyHeapDijkstra;
  for (const auto& [name, g] : kernelGraphs(GetParam())) {
    SCOPED_TRACE(name);
    const int n = g.nodeCount();
    for (msc::graph::NodeId s = 0; s < n; ++s) {
      SCOPED_TRACE("source " + std::to_string(s));
      const auto full = lazyHeapDijkstra(g, s, kInfDist, -1);
      const auto tree = dijkstra(g, s);
      EXPECT_TRUE(sameBits(tree.dist, full.dist));
      EXPECT_EQ(tree.parent, full.parent);
      for (const double radius : {0.0, medianFinite(full.dist), kInfDist}) {
        SCOPED_TRACE("radius " + std::to_string(radius));
        const auto want = lazyHeapDijkstra(g, s, radius, -1);
        const auto bounded = msc::graph::dijkstraBounded(g, s, radius);
        EXPECT_TRUE(sameBits(bounded.dist, want.dist));
        EXPECT_EQ(bounded.parent, want.parent);
        EXPECT_TRUE(sameBits(
            msc::graph::dijkstraBoundedDistances(g, s, radius), want.dist));
      }
    }
    // Every target of one source: the early exit stops at the same node.
    const msc::graph::NodeId s = static_cast<msc::graph::NodeId>(
        GetParam() % static_cast<std::uint64_t>(n));
    for (msc::graph::NodeId t = 0; t < n; ++t) {
      const double want =
          lazyHeapDijkstra(g, s, kInfDist, t).dist[static_cast<std::size_t>(t)];
      EXPECT_TRUE(sameBits({msc::graph::dijkstraDistance(g, s, t)}, {want}))
          << "target " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraBitIdentity,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
