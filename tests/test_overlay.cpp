#include "graph/overlay.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "graph/apsp.h"
#include "graph/distance_oracle.h"
#include "helpers.h"
#include "reference.h"
#include "util/rng.h"

namespace {

using msc::graph::kInfDist;
using msc::graph::OverlayEvaluator;

// Oracle over a copy of `g` with every row resident.
std::shared_ptr<const msc::graph::DistanceOracle> oracleOf(
    const msc::graph::Graph& g) {
  return msc::test::allRowsOracle(std::make_shared<const msc::graph::Graph>(g));
}

TEST(Overlay, NoShortcutsReturnsBaseDistances) {
  const auto g = msc::test::lineGraph(6);
  const auto d = oracleOf(g);
  OverlayEvaluator overlay(*d, {0, 3, 5});
  const auto dists = overlay.pairDistances({{0, 3}, {3, 5}, {0, 5}}, {});
  EXPECT_DOUBLE_EQ(dists[0], 3.0);
  EXPECT_DOUBLE_EQ(dists[1], 2.0);
  EXPECT_DOUBLE_EQ(dists[2], 5.0);
}

TEST(Overlay, ShortcutEndpointsNeedNotBeTerminals) {
  const auto g = msc::test::lineGraph(10);
  const auto d = oracleOf(g);
  OverlayEvaluator overlay(*d, {0, 9});
  // Shortcut between interior nodes 1 and 8.
  const auto dists = overlay.pairDistances({{0, 9}}, {{1, 8}});
  EXPECT_DOUBLE_EQ(dists[0], 2.0);  // 0-1 (1) + shortcut (0) + 8-9 (1)
}

TEST(Overlay, MultiShortcutChaining) {
  const auto g = msc::test::lineGraph(12);
  const auto d = oracleOf(g);
  OverlayEvaluator overlay(*d, {0, 11});
  // Chain: 0 ->1 =>4 ->5 =>10 ->11 uses BOTH shortcuts: length 3.
  const auto dists = overlay.pairDistances({{0, 11}}, {{1, 4}, {5, 10}});
  EXPECT_DOUBLE_EQ(dists[0], 3.0);
}

TEST(Overlay, NonTerminalQueryThrows) {
  const auto g = msc::test::lineGraph(5);
  const auto d = oracleOf(g);
  OverlayEvaluator overlay(*d, {0, 4});
  EXPECT_THROW(overlay.pairDistances({{0, 2}}, {}), std::invalid_argument);
}

TEST(Overlay, InvalidNodesThrow) {
  const auto g = msc::test::lineGraph(5);
  const auto d = oracleOf(g);
  EXPECT_THROW(OverlayEvaluator(*d, {0, 7}), std::out_of_range);
  OverlayEvaluator overlay(*d, {0, 4});
  EXPECT_THROW(overlay.pairDistances({{0, 4}}, {{0, 9}}), std::out_of_range);
}

TEST(Overlay, ShortcutBetweenTerminalsRelaxesOtherPairs) {
  const auto g = msc::test::lineGraph(8);
  const auto d = oracleOf(g);
  OverlayEvaluator overlay(*d, {0, 3, 7});
  const std::vector<std::pair<msc::graph::NodeId, msc::graph::NodeId>>
      queries = {{0, 3}, {0, 7}, {3, 7}};
  EXPECT_EQ(overlay.pairDistances(queries, {}),
            (std::vector<double>{3.0, 7.0, 4.0}));
  // 0-7 becomes 0; 3-7 becomes 3 via 3-0-(7).
  EXPECT_EQ(overlay.pairDistances(queries, {{0, 7}}),
            (std::vector<double>{3.0, 0.0, 3.0}));
}

// ----------------------------------------------------------- Property ----

class OverlayProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlayProperty, MatchesMatrixRelaxation) {
  const std::uint64_t seed = GetParam();
  const auto g = msc::test::randomGraph(35, 0.07, seed);
  const auto base = msc::graph::allPairsDistances(g);
  msc::util::Rng rng(seed ^ 0x0f0fULL);

  // Random terminals and shortcuts.
  std::vector<msc::graph::NodeId> terminals;
  for (int i = 0; i < 10; ++i) {
    terminals.push_back(static_cast<int>(rng.below(35)));
  }
  std::vector<std::pair<msc::graph::NodeId, msc::graph::NodeId>> shortcuts;
  for (int s = 0; s < 5; ++s) {
    const int a = static_cast<int>(rng.below(35));
    const int b = static_cast<int>(rng.below(35));
    if (a != b) shortcuts.push_back({a, b});
  }

  const auto full = msc::test::distancesWithShortcuts(base, shortcuts);

  const auto oracle = oracleOf(g);
  OverlayEvaluator overlay(*oracle, terminals);
  std::vector<std::pair<msc::graph::NodeId, msc::graph::NodeId>> queries;
  for (std::size_t i = 0; i < terminals.size(); ++i) {
    for (std::size_t j = i + 1; j < terminals.size(); ++j) {
      queries.push_back({terminals[i], terminals[j]});
    }
  }
  const auto dists = overlay.pairDistances(queries, shortcuts);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto expected = full(static_cast<std::size_t>(queries[q].first),
                               static_cast<std::size_t>(queries[q].second));
    if (expected == kInfDist) {
      EXPECT_EQ(dists[q], kInfDist);
    } else {
      EXPECT_NEAR(dists[q], expected, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlayProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
