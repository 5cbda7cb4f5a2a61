#include "graph/shortcut_distance.h"

#include <gtest/gtest.h>

#include "graph/apsp.h"
#include "graph/dijkstra.h"
#include "helpers.h"
#include "reference.h"
#include "util/rng.h"

namespace {

using msc::graph::applyZeroEdge;
using msc::graph::kInfDist;

// Reference: rebuild the graph with shortcut edges of length 0 and rerun
// APSP from scratch.
msc::graph::DistanceMatrix rebuildReference(
    const msc::graph::Graph& g,
    const std::vector<std::pair<int, int>>& shortcuts) {
  msc::graph::Graph g2(g.nodeCount());
  for (const auto& e : g.edges()) g2.addEdge(e.u, e.v, e.length);
  for (const auto& [a, b] : shortcuts) g2.addEdge(a, b, 0.0);
  return msc::graph::allPairsDistances(g2);
}

TEST(ApplyZeroEdge, LineGraphShortcut) {
  const auto g = msc::test::lineGraph(6, 1.0);  // 0-1-2-3-4-5
  auto d = msc::graph::allPairsDistances(g);
  applyZeroEdge(d, 0, 5);
  EXPECT_DOUBLE_EQ(d(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(d(0, 4), 1.0);  // 0 ->(0) 5 -> 4
  EXPECT_DOUBLE_EQ(d(1, 5), 1.0);
  EXPECT_DOUBLE_EQ(d(2, 3), 1.0);  // unchanged: direct edge still best
  EXPECT_DOUBLE_EQ(d(1, 4), 2.0);  // 1-0-(5)-4 = 1+0+1
}

TEST(ApplyZeroEdge, ConnectsComponents) {
  msc::graph::Graph g(4);
  g.addEdge(0, 1, 1.0);
  g.addEdge(2, 3, 1.0);
  auto d = msc::graph::allPairsDistances(g);
  EXPECT_EQ(d(0, 2), kInfDist);
  applyZeroEdge(d, 1, 2);
  EXPECT_DOUBLE_EQ(d(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(d(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 2), 0.0);
}

TEST(ApplyZeroEdge, SelfLoopIsNoop) {
  const auto g = msc::test::cycleGraph(5);
  auto d = msc::graph::allPairsDistances(g);
  const auto before = d;
  applyZeroEdge(d, 2, 2);
  EXPECT_EQ(d, before);
}

TEST(ApplyZeroEdge, OutOfRangeThrows) {
  auto d = msc::graph::DistanceMatrix(3, 3, 0.0);
  EXPECT_THROW(applyZeroEdge(d, 0, 3), std::out_of_range);
  EXPECT_THROW(applyZeroEdge(d, -1, 2), std::out_of_range);
}

TEST(DistanceWithZeroEdge, ClosedFormMatchesApply) {
  const auto g = msc::test::lineGraph(8, 1.0);
  const auto base = msc::graph::allPairsDistances(g);
  for (int a = 0; a < 8; ++a) {
    for (int b = a + 1; b < 8; ++b) {
      auto applied = base;
      applyZeroEdge(applied, a, b);
      for (int x = 0; x < 8; ++x) {
        for (int y = 0; y < 8; ++y) {
          EXPECT_NEAR(msc::test::distanceWithZeroEdge(base, x, y, a, b),
                      applied(static_cast<std::size_t>(x),
                              static_cast<std::size_t>(y)),
                      1e-12);
        }
      }
    }
  }
}

// ----------------------------------------------------------- Property ----

class ZeroEdgeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZeroEdgeProperty, SequentialRelaxationMatchesRebuild) {
  const std::uint64_t seed = GetParam();
  const auto g = msc::test::randomGraph(30, 0.08, seed);
  msc::util::Rng rng(seed ^ 0xfeedULL);

  std::vector<std::pair<int, int>> shortcuts;
  for (int s = 0; s < 4; ++s) {
    const int a = static_cast<int>(rng.below(30));
    const int b = static_cast<int>(rng.below(30));
    if (a != b) shortcuts.push_back({a, b});
  }

  const auto incremental = msc::test::distancesWithShortcuts(
      msc::graph::allPairsDistances(g), shortcuts);
  const auto reference = rebuildReference(g, shortcuts);

  for (std::size_t i = 0; i < 30; ++i) {
    for (std::size_t j = 0; j < 30; ++j) {
      if (reference(i, j) == kInfDist) {
        EXPECT_EQ(incremental(i, j), kInfDist);
      } else {
        EXPECT_NEAR(incremental(i, j), reference(i, j), 1e-9)
            << "i=" << i << " j=" << j;
      }
    }
  }
}

TEST_P(ZeroEdgeProperty, OrderIndependent) {
  const std::uint64_t seed = GetParam();
  const auto g = msc::test::randomGraph(20, 0.12, seed);
  const auto base = msc::graph::allPairsDistances(g);

  std::vector<std::pair<int, int>> shortcuts{{0, 10}, {5, 15}, {3, 19}};
  auto forward = base;
  for (const auto& [a, b] : shortcuts) applyZeroEdge(forward, a, b);
  auto backward = base;
  for (auto it = shortcuts.rbegin(); it != shortcuts.rend(); ++it) {
    applyZeroEdge(backward, it->first, it->second);
  }
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 20; ++j) {
      if (forward(i, j) == kInfDist) {
        EXPECT_EQ(backward(i, j), kInfDist);
      } else {
        EXPECT_NEAR(forward(i, j), backward(i, j), 1e-9);
      }
    }
  }
}

TEST_P(ZeroEdgeProperty, NeverIncreasesDistances) {
  const auto g = msc::test::randomGraph(25, 0.1, GetParam());
  const auto base = msc::graph::allPairsDistances(g);
  auto relaxed = base;
  applyZeroEdge(relaxed, 0, 24);
  for (std::size_t i = 0; i < 25; ++i) {
    for (std::size_t j = 0; j < 25; ++j) {
      EXPECT_LE(relaxed(i, j), base(i, j));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZeroEdgeProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
