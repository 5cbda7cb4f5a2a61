// Cross-cutting properties tying the algorithms together: optimality
// ceilings, permutation invariance, substrate-independence, and combined
// extension behaviour (weighted + budgeted, routing on dynamic problems).
#include <gtest/gtest.h>

#include "core/aea.h"
#include "core/budgeted.h"
#include "core/dynamic.h"
#include "core/ea.h"
#include "core/exact.h"
#include "core/greedy.h"
#include "core/routing.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "core/weighted.h"
#include "gen/barabasi_albert.h"
#include "gen/grid.h"
#include "gen/watts_strogatz.h"
#include "graph/apsp.h"
#include "helpers.h"
#include "reference.h"
#include "util/rng.h"

namespace {

using msc::core::CandidateSet;
using msc::core::Instance;
using msc::core::Shortcut;
using msc::core::ShortcutList;
using msc::core::SigmaEvaluator;

class AlgorithmsVsOptimum : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AlgorithmsVsOptimum, NoAlgorithmExceedsExactOptimum) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(10, 5, 1.0, seed);
  const auto cands = CandidateSet::allPairs(10);
  const int k = 2;

  SigmaEvaluator sigma(inst);
  const double opt = msc::core::exactOptimum(sigma, cands, k).value;

  const auto aa = msc::core::sandwichApproximation(inst, cands, {.k = k});
  EXPECT_LE(aa.sigma, opt + 1e-9);

  msc::core::EaConfig eaCfg;
  eaCfg.iterations = 300;
  eaCfg.seed = seed;
  EXPECT_LE(msc::core::evolutionaryAlgorithm(sigma, cands, {.k = k, .seed = eaCfg.seed}, eaCfg).value,
            opt + 1e-9);

  msc::core::AeaConfig aeaCfg;
  aeaCfg.iterations = 50;
  aeaCfg.seed = seed;
  EXPECT_LE(
      msc::core::adaptiveEvolutionaryAlgorithm(sigma, cands, {.k = k, .seed = aeaCfg.seed}, aeaCfg).value,
      opt + 1e-9);
}

TEST_P(AlgorithmsVsOptimum, AeaWithEnoughIterationsMatchesOptimumOnTiny) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(8, 4, 1.0, seed);
  const auto cands = CandidateSet::allPairs(8);
  const int k = 2;
  SigmaEvaluator sigma(inst);
  const double opt = msc::core::exactOptimum(sigma, cands, k).value;
  msc::core::AeaConfig cfg;
  cfg.iterations = 400;
  cfg.seed = seed;
  const double aea =
      msc::core::adaptiveEvolutionaryAlgorithm(sigma, cands, {.k = k, .seed = cfg.seed}, cfg).value;
  // AEA is a heuristic (greedy swaps can settle in a 1-swap-optimal
  // plateau), but on a 28-candidate space with 400 iterations it must land
  // within one pair of the optimum.
  EXPECT_GE(aea, opt - 1.0) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgorithmsVsOptimum,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(Permutation, SigmaIsOrderInvariant) {
  const auto inst = msc::test::randomInstance(20, 8, 1.2, 3);
  SigmaEvaluator sigma(inst);
  msc::util::Rng rng(5);
  auto placement = msc::test::randomPlacement(20, 5, rng);
  const double reference = sigma.value(placement);
  for (int shuffleRound = 0; shuffleRound < 5; ++shuffleRound) {
    rng.shuffle(placement);
    EXPECT_DOUBLE_EQ(sigma.value(placement), reference);
  }
}

// ------------------------------------------------ alternative substrates

TEST(Substrates, SigmaStrategiesAgreeOnWattsStrogatz) {
  msc::gen::WattsStrogatzConfig cfg;
  cfg.nodes = 40;
  cfg.neighbors = 2;
  cfg.rewireProbability = 0.2;
  cfg.seed = 3;
  auto g = msc::gen::wattsStrogatz(cfg);
  const auto dist = msc::graph::allPairsDistances(g);
  msc::util::Rng rng(4);
  auto pairs = msc::core::sampleImportantPairs(g, dist, 8, 1.0, rng);
  Instance inst(std::move(g), std::move(pairs), 1.0);
  SigmaEvaluator sigma(inst);
  for (int trial = 0; trial < 5; ++trial) {
    const auto f = msc::test::randomPlacement(40, 3, rng);
    EXPECT_DOUBLE_EQ(sigma.value(f), msc::test::sigmaByRebuild(inst, f));
    EXPECT_DOUBLE_EQ(msc::test::incrementalValue(sigma, f), sigma.value(f));
  }
}

TEST(Substrates, SigmaStrategiesAgreeOnBarabasiAlbert) {
  msc::gen::BarabasiAlbertConfig cfg;
  cfg.nodes = 40;
  cfg.attachEdges = 2;
  cfg.seed = 5;
  auto g = msc::gen::barabasiAlbert(cfg);
  const auto dist = msc::graph::allPairsDistances(g);
  msc::util::Rng rng(6);
  auto pairs = msc::core::sampleImportantPairs(g, dist, 8, 0.8, rng);
  Instance inst(std::move(g), std::move(pairs), 0.8);
  SigmaEvaluator sigma(inst);
  for (int trial = 0; trial < 5; ++trial) {
    const auto f = msc::test::randomPlacement(40, 3, rng);
    EXPECT_DOUBLE_EQ(sigma.value(f), msc::test::sigmaByRebuild(inst, f));
    EXPECT_DOUBLE_EQ(msc::test::incrementalValue(sigma, f), sigma.value(f));
  }
}

TEST(Substrates, GridShortcutGeometryIsExact) {
  // On a 5x5 unit grid with pairs across the diagonal, a shortcut between
  // the corners changes distances by exactly the manhattan formula.
  msc::gen::GridConfig cfg;
  cfg.width = 5;
  cfg.height = 5;
  auto net = msc::gen::grid(cfg);
  const int corner0 = msc::gen::gridNode(cfg, 0, 0);
  const int corner1 = msc::gen::gridNode(cfg, 4, 4);
  Instance inst(std::move(net.graph), {{corner0, corner1}}, 2.0);
  SigmaEvaluator sigma(inst);
  EXPECT_DOUBLE_EQ(sigma.value({}), 0.0);  // manhattan distance 8 > 2
  EXPECT_DOUBLE_EQ(sigma.value({Shortcut::make(corner0, corner1)}), 1.0);
  // Shortcut one row short: distance becomes 1.
  const int nearCorner = msc::gen::gridNode(cfg, 4, 3);
  EXPECT_DOUBLE_EQ(sigma.value({Shortcut::make(corner0, nearCorner)}), 1.0);
}

// ------------------------------------------------ extension interactions

TEST(Extensions, BudgetedGreedyOnWeightedObjective) {
  const auto inst = msc::test::randomInstance(18, 8, 1.2, 7);
  const auto cands = CandidateSet::allPairs(18);
  std::vector<double> weights;
  msc::util::Rng rng(8);
  for (int i = 0; i < inst.pairCount(); ++i) {
    weights.push_back(rng.uniform(0.5, 3.0));
  }
  msc::core::WeightedSigmaEvaluator wsigma(inst, weights);
  const auto cost = [](const Shortcut& f) {
    return 1.0 + 0.2 * static_cast<double>(f.b % 4);
  };
  const auto res = msc::core::budgetedGreedy(wsigma, cands, cost, 5.0, {});
  EXPECT_LE(res.cost, 5.0 + 1e-12);
  EXPECT_NEAR(wsigma.value(res.placement), res.value, 1e-9);
}

TEST(Extensions, RoutingConsistentAcrossDynamicInstances) {
  std::vector<Instance> series;
  for (int t = 0; t < 3; ++t) {
    series.push_back(msc::test::randomInstance(15, 6, 1.0, 700 + 10 * t));
  }
  const std::vector<Instance> copies = series;
  const auto cands = CandidateSet::allPairs(15);
  msc::core::DynamicProblem problem(std::move(series), cands);
  const auto aa = problem.sandwich(cands, {.k = 3});

  // Per-instance sigma equals per-instance count of requirement-meeting
  // routes under the same placement.
  const auto perInstance = problem.perInstanceSigma(aa.placement);
  for (std::size_t t = 0; t < copies.size(); ++t) {
    const auto routes = msc::core::routeAllPairs(copies[t], aa.placement);
    int meets = 0;
    for (const auto& r : routes) {
      if (r.meetsRequirement) ++meets;
    }
    EXPECT_DOUBLE_EQ(static_cast<double>(meets), perInstance[t]);
  }
}

TEST(Extensions, WeightedSandwichOnCommonNodeInstance) {
  // MSC-CN with weights: heavier pairs pull the shortcut toward their side.
  auto g = msc::test::lineGraph(12);
  Instance inst(std::move(g), {{0, 5}, {0, 11}}, 1.0);
  const auto cands = CandidateSet::allPairs(12);
  // Pair (0,11) is 10x more important.
  const auto aa =
      msc::core::weightedSandwich(inst, {1.0, 10.0}, cands, {.k = 1});
  EXPECT_GE(aa.sigma, 10.0);  // the heavy pair must be maintained
}

}  // namespace
