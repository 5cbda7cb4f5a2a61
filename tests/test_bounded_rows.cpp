// Differential test for d_t-bounded oracle rows (docs/ALGORITHMS.md §15):
// an Instance reads its rows exact within d_t (Instance::baseRow), which
// the oracle serves from Dijkstra runs bounded at d_t, built on demand.
// Every solver must return exactly what it returns on full rows. The
// reference is the same oracle behind a decorator that leaves the radius
// calls at their DistanceOracle defaults (msc::test::FullRowOracle), so
// every row it serves is full.
//
// The grid: every generator in tests/helpers.h (the src/gen sweep plus the
// line, cycle and random builders) x all-pairs and pair-node candidates x
// threads {1, 4} x d_t in {0, the median pair distance, +inf} x an
// unbounded oracle and one whose row budget forces evictions. At each point
// sigma greedy, the sandwich (AA), the weighted sandwich, EA, AEA, the
// random baseline, budgeted greedy and both MSC-CN solvers must agree in
// every result field but wall time. EA, AEA and the random baseline place
// shortcuts with any endpoint, so over all pairs they build rows of
// non-pair nodes on demand.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/bounds.h"
#include "core/budgeted.h"
#include "core/candidates.h"
#include "core/aea.h"
#include "core/common_node.h"
#include "core/ea.h"
#include "core/greedy.h"
#include "core/instance.h"
#include "core/random_baseline.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "graph/distance_oracle.h"
#include "helpers.h"
#include "util/rng.h"

namespace {

using msc::core::CandidateSet;
using msc::core::Instance;
using msc::core::Shortcut;
using msc::core::ShortcutList;
using msc::core::SigmaEvaluator;
using msc::core::SocialPair;
using msc::core::SolveOptions;
using msc::graph::DistanceOracle;
using msc::graph::Graph;
using msc::graph::kInfDist;
using msc::graph::NodeId;
using msc::graph::PairCentricOracle;
using msc::test::FullRowOracle;

enum class Radius { Zero, Median, Inf };
enum class Budget { Unbounded, Evicting };

const char* radiusName(Radius r) {
  switch (r) {
    case Radius::Zero: return "zero";
    case Radius::Median: return "median";
    case Radius::Inf: return "inf";
  }
  return "?";
}

std::vector<msc::test::GenCase> allGenerators() {
  auto cases = msc::test::generatorSweep();
  cases.push_back({"line", msc::test::lineGraph(30, 0.1)});
  cases.push_back({"cycle", msc::test::cycleGraph(30, 0.1)});
  cases.push_back({"random", msc::test::randomGraph(50, 0.08, 23)});
  return cases;
}

CandidateSet pairNodeCandidates(const Instance& inst) {
  const auto& nodes = inst.pairNodes();
  ShortcutList list;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      list.push_back(Shortcut::make(nodes[i], nodes[j]));
    }
  }
  return CandidateSet(std::move(list));
}

/// Pairs {hub, w} for the MSC-CN solvers, w spread over the node range.
std::vector<SocialPair> commonNodePairs(int n, NodeId hub) {
  std::vector<SocialPair> pairs;
  for (const int div : {1, 2, 3, 5, 7}) {
    const NodeId w = n - 1 - n / (div + 1);
    if (w != hub) pairs.push_back({hub, w});
  }
  return pairs;
}

void expectSame(const msc::core::GreedyResult& a,
                const msc::core::GreedyResult& b) {
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.trajectory, b.trajectory);
  EXPECT_EQ(a.gainEvaluations, b.gainEvaluations);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_TRUE(a.interrupted == b.interrupted);
}

void expectSame(const msc::core::SandwichResult& a,
                const msc::core::SandwichResult& b) {
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.sigma, b.sigma);
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.placementMu, b.placementMu);
  EXPECT_EQ(a.placementSigma, b.placementSigma);
  EXPECT_EQ(a.placementNu, b.placementNu);
  EXPECT_EQ(a.sigmaOfMu, b.sigmaOfMu);
  EXPECT_EQ(a.sigmaOfSigma, b.sigmaOfSigma);
  EXPECT_EQ(a.sigmaOfNu, b.sigmaOfNu);
  EXPECT_EQ(a.nuOfFnu, b.nuOfFnu);
  EXPECT_EQ(a.sigmaOfFnu, b.sigmaOfFnu);
  EXPECT_EQ(a.gainEvaluations, b.gainEvaluations);
  EXPECT_TRUE(a.interrupted == b.interrupted);
  EXPECT_EQ(a.certifiedUpperBound, b.certifiedUpperBound);
  EXPECT_EQ(a.dataDependentRatio(), b.dataDependentRatio());
}

void expectSame(const msc::core::BudgetedResult& a,
                const msc::core::BudgetedResult& b) {
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.densityPlacement, b.densityPlacement);
  EXPECT_EQ(a.uniformPlacement, b.uniformPlacement);
  EXPECT_EQ(a.densityValue, b.densityValue);
  EXPECT_EQ(a.uniformValue, b.uniformValue);
  EXPECT_EQ(a.gainEvaluations, b.gainEvaluations);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_TRUE(a.interrupted == b.interrupted);
}

void expectSame(const msc::core::EaResult& a, const msc::core::EaResult& b) {
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.bestByIteration, b.bestByIteration);
  EXPECT_EQ(a.archiveSize, b.archiveSize);
  EXPECT_EQ(a.gainEvaluations, b.gainEvaluations);
  EXPECT_EQ(a.iterations, b.iterations);
}

void expectSame(const msc::core::AeaResult& a,
                const msc::core::AeaResult& b) {
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.bestByIteration, b.bestByIteration);
  EXPECT_EQ(a.gainEvaluations, b.gainEvaluations);
  EXPECT_EQ(a.iterations, b.iterations);
}

void expectSame(const msc::core::RandomBaselineResult& a,
                const msc::core::RandomBaselineResult& b) {
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.meanValue, b.meanValue);
}

void expectSame(const msc::core::CommonNodeResult& a,
                const msc::core::CommonNodeResult& b) {
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.sigma, b.sigma);
}

/// Every solver on the bounded-row instance against the full-row one.
void expectSolversAgree(const Instance& bounded, const Instance& full,
                        const CandidateSet& cands, int threads) {
  const SolveOptions options{.k = 3, .threads = threads, .seed = 1};
  {
    SigmaEvaluator a(bounded);
    SigmaEvaluator b(full);
    SCOPED_TRACE("sigma greedy");
    expectSame(msc::core::greedyMaximize(a, cands, options),
               msc::core::greedyMaximize(b, cands, options));
    // Whole placements, including ones that close no pair.
    msc::util::Rng rng(7);
    for (int size = 0; size <= 3; ++size) {
      const auto f = msc::test::randomPlacement(bounded.graph().nodeCount(),
                                                size, rng);
      EXPECT_EQ(a.value(f), b.value(f));
      EXPECT_EQ(msc::core::MuEvaluator(bounded, cands).value(f),
                msc::core::MuEvaluator(full, cands).value(f));
      EXPECT_EQ(msc::core::NuEvaluator(bounded).value(f),
                msc::core::NuEvaluator(full).value(f));
    }
  }
  {
    SCOPED_TRACE("sandwich");
    expectSame(msc::core::sandwichApproximation(bounded, cands, options),
               msc::core::sandwichApproximation(full, cands, options));
  }
  {
    SCOPED_TRACE("weighted sandwich");
    std::vector<double> weights;
    for (int i = 0; i < bounded.pairCount(); ++i) {
      weights.push_back(0.5 + 0.25 * (i % 4));
    }
    expectSame(
        msc::core::sandwichApproximation(bounded, cands, options, weights),
        msc::core::sandwichApproximation(full, cands, options, weights));
  }
  {
    SCOPED_TRACE("ea");
    const SigmaEvaluator a(bounded);
    const SigmaEvaluator b(full);
    msc::core::EaConfig config;
    config.iterations = 60;
    expectSame(msc::core::evolutionaryAlgorithm(a, cands, options, config),
               msc::core::evolutionaryAlgorithm(b, cands, options, config));
  }
  {
    SCOPED_TRACE("aea");
    SigmaEvaluator a(bounded);
    SigmaEvaluator b(full);
    const msc::core::AeaConfig config{.iterations = 20, .populationSize = 4};
    expectSame(
        msc::core::adaptiveEvolutionaryAlgorithm(a, cands, options, config),
        msc::core::adaptiveEvolutionaryAlgorithm(b, cands, options, config));
  }
  {
    SCOPED_TRACE("random");
    const SigmaEvaluator a(bounded);
    const SigmaEvaluator b(full);
    const msc::core::RandomBaselineConfig config{.repeats = 40, .seed = 3};
    expectSame(msc::core::randomBaseline(a, cands, options.k, config),
               msc::core::randomBaseline(b, cands, options.k, config));
  }
  {
    SCOPED_TRACE("budgeted");
    SigmaEvaluator a(bounded);
    SigmaEvaluator b(full);
    const auto cost = msc::core::unitCost();
    expectSame(msc::core::budgetedGreedy(a, cands, cost, 2.5, options),
               msc::core::budgetedGreedy(b, cands, cost, 2.5, options));
  }
}

using GridParam = std::tuple<int, Radius, Budget>;

class BoundedRowsGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(BoundedRowsGrid, SolversMatchFullRows) {
  const auto [threads, radius, budgetKind] = GetParam();
  for (const auto& gc : allGenerators()) {
    SCOPED_TRACE(gc.name);
    const auto graph = std::make_shared<const Graph>(gc.graph);
    const int n = graph->nodeCount();
    const PairCentricOracle::Config config{
        .landmarks = 4,
        .threads = threads,
        .rowBudgetBytes = budgetKind == Budget::Evicting
                              ? 3 * msc::graph::oracleRowBytes(
                                        static_cast<std::size_t>(n))
                              : 0};
    const auto oracle = std::make_shared<const PairCentricOracle>(graph, config);
    const auto fullOracle = std::make_shared<const FullRowOracle>(
        std::make_shared<const PairCentricOracle>(graph, config));

    const auto pairs = msc::test::samplePairs(gc.graph, 8, 13);
    double dt = 0.0;
    if (radius == Radius::Median) {
      dt = msc::test::medianThreshold(*msc::test::allRowsOracle(graph), pairs);
    } else if (radius == Radius::Inf) {
      dt = kInfDist;
    }
    SCOPED_TRACE(dt);
    const Instance bounded(graph, oracle, pairs, dt, threads);
    const Instance full(graph, fullOracle, pairs, dt, threads);

    {
      SCOPED_TRACE("all pairs");
      expectSolversAgree(bounded, full, CandidateSet::allPairs(n), threads);
      // Rows beyond the pair-node prefetch were built on demand.
      EXPECT_GT(oracle->stats().rowBuilds, bounded.pairNodes().size());
    }
    {
      SCOPED_TRACE("pair nodes");
      expectSolversAgree(bounded, full, pairNodeCandidates(bounded), threads);
    }
    {
      SCOPED_TRACE("common node");
      const NodeId hub = pairs.front().u;
      const auto cnPairs = commonNodePairs(n, hub);
      const Instance cnBounded(graph, oracle, cnPairs, dt, threads);
      const Instance cnFull(graph, fullOracle, cnPairs, dt, threads);
      expectSame(msc::core::solveCommonNodeCoverage(cnBounded, hub, 3),
                 msc::core::solveCommonNodeCoverage(cnFull, hub, 3));
      expectSame(msc::core::solveCommonNodeSigmaGreedy(cnBounded, hub, 3),
                 msc::core::solveCommonNodeSigmaGreedy(cnFull, hub, 3));
    }
    if (budgetKind == Budget::Evicting) {
      EXPECT_GT(oracle->stats().rowsEvicted, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BoundedRowsGrid,
    ::testing::Combine(::testing::Values(1, 4),
                       ::testing::Values(Radius::Zero, Radius::Median,
                                         Radius::Inf),
                       ::testing::Values(Budget::Unbounded, Budget::Evicting)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return std::string(radiusName(std::get<1>(info.param))) + "_" +
             (std::get<2>(info.param) == Budget::Evicting ? "evicting"
                                                          : "unbounded") +
             "_t" + std::to_string(std::get<0>(info.param));
    });

}  // namespace
