// End-to-end pipelines: generator -> instance -> every algorithm, plus
// degenerate-input behaviour ("failure injection" for a pure-algorithm
// library: empty graphs, zero budgets, extreme thresholds, trivial cases).
#include <gtest/gtest.h>

#include "core/aea.h"
#include "core/bounds.h"
#include "core/common_node.h"
#include "core/dynamic.h"
#include "core/ea.h"
#include "core/greedy.h"
#include "core/random_baseline.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "eval/experiment.h"
#include "helpers.h"

namespace {

using msc::core::CandidateSet;
using msc::core::Instance;
using msc::core::SigmaEvaluator;

TEST(Integration, RgPipelineAllAlgorithms) {
  msc::eval::RgSetup setup;
  setup.nodes = 60;
  setup.radius = 0.25;
  setup.pairs = 20;
  setup.failureThreshold = 0.14;
  setup.seed = 3;
  const auto spatial = msc::eval::makeRgInstance(setup);
  const Instance& inst = spatial.instance;
  EXPECT_EQ(inst.pairCount(), 20);
  for (const auto& p : inst.pairs()) EXPECT_FALSE(inst.baseSatisfied(p));

  const auto cands = CandidateSet::allPairs(inst.graph().nodeCount());
  const int k = 4;

  const auto aa = msc::core::sandwichApproximation(inst, cands, {.k = k});
  SigmaEvaluator sigma(inst);

  msc::core::EaConfig eaCfg;
  eaCfg.iterations = 150;
  const auto ea = msc::core::evolutionaryAlgorithm(sigma, cands, {.k = k, .seed = 1}, eaCfg);

  msc::core::AeaConfig aeaCfg;
  aeaCfg.iterations = 60;
  const auto aea =
      msc::core::adaptiveEvolutionaryAlgorithm(sigma, cands, {.k = k, .seed = 1}, aeaCfg);

  msc::core::RandomBaselineConfig rndCfg;
  rndCfg.repeats = 100;
  const auto rnd = msc::core::randomBaseline(sigma, cands, {.k = k, .seed = 1}, rndCfg);

  // All produce feasible placements with self-consistent values.
  EXPECT_LE(aa.placement.size(), static_cast<std::size_t>(k));
  EXPECT_LE(ea.placement.size(), static_cast<std::size_t>(k));
  EXPECT_EQ(aea.placement.size(), static_cast<std::size_t>(k));
  EXPECT_LE(rnd.placement.size(), static_cast<std::size_t>(k));

  // Quality sanity on this seeded instance: informed beats best-of-random,
  // which beats nothing.
  EXPECT_GE(aa.sigma, rnd.value - 1e-9);
  EXPECT_GE(aea.value, 1.0);
  EXPECT_GE(aa.sigma, 1.0);
}

TEST(Integration, GowallaPipelineFewShortcutsSatisfyMany) {
  msc::eval::GowallaSetup setup;
  setup.pairs = 40;
  setup.failureThreshold = 0.27;
  const auto spatial = msc::eval::makeGowallaInstance(setup);
  const Instance& inst = spatial.instance;
  const auto cands = CandidateSet::allPairs(inst.graph().nodeCount());

  const auto aa = msc::core::sandwichApproximation(inst, cands, {.k = 4});
  // The clustered structure means a handful of shortcuts should maintain a
  // sizeable share of the pairs (paper §VII-D's observation).
  EXPECT_GE(aa.sigma, 0.25 * inst.pairCount());
}

TEST(Integration, TrivialCaseDirectConnectionWhenBudgetCoversPairs) {
  // m <= k: the problem is trivial (paper §III-C) — directly connecting
  // each pair satisfies everything; sigma-greedy must reach m as well.
  const auto inst = msc::test::randomInstance(20, 4, 0.8, 9);
  const auto cands = CandidateSet::allPairs(20);
  SigmaEvaluator sigma(inst);

  msc::core::ShortcutList direct;
  for (const auto& p : inst.pairs()) {
    direct.push_back(msc::core::Shortcut::make(p.u, p.w));
  }
  EXPECT_DOUBLE_EQ(sigma.value(direct), inst.pairCount());

  const auto greedy = msc::core::greedyMaximize(sigma, cands, {.k = 4});
  EXPECT_DOUBLE_EQ(greedy.value, inst.pairCount());
}

TEST(Integration, DynamicPipeline) {
  msc::eval::DynamicSetup setup;
  setup.nodes = 30;
  setup.groups = 4;
  setup.nodesPerGroup = 8;
  setup.timeInstances = 6;
  setup.pairsPerInstance = 10;
  auto instances = msc::eval::makeDynamicInstances(setup);
  ASSERT_EQ(instances.size(), 6u);

  const auto cands = CandidateSet::allPairs(30);
  msc::core::DynamicProblem problem(std::move(instances), cands);
  const auto aa = problem.sandwich(cands, {.k = 4});
  EXPECT_GE(aa.sigma, 1.0);
  EXPECT_LE(aa.sigma, problem.totalPairCount());
}

// -------------------------------------------------- degenerate inputs ----

TEST(Degenerate, EdgelessGraph) {
  msc::graph::Graph g(6);
  Instance inst(std::move(g), {{0, 1}, {2, 3}}, 0.5);
  const auto cands = CandidateSet::allPairs(6);
  const auto aa = msc::core::sandwichApproximation(inst, cands, {.k = 2});
  EXPECT_DOUBLE_EQ(aa.sigma, 2.0);  // direct shortcuts fix both pairs
}

TEST(Degenerate, ZeroThreshold) {
  // d_t = 0: only 0-length connections qualify; a direct shortcut works.
  Instance inst(msc::test::lineGraph(4), {{0, 3}}, 0.0);
  const auto cands = CandidateSet::allPairs(4);
  SigmaEvaluator sigma(inst);
  EXPECT_DOUBLE_EQ(sigma.value({}), 0.0);
  EXPECT_DOUBLE_EQ(sigma.value({msc::core::Shortcut::make(0, 3)}), 1.0);
}

TEST(Degenerate, HugeThresholdEverythingSatisfied) {
  Instance inst(msc::test::lineGraph(5), {{0, 4}, {1, 3}}, 1e9);
  SigmaEvaluator sigma(inst);
  EXPECT_DOUBLE_EQ(sigma.value({}), 2.0);
  const auto cands = CandidateSet::allPairs(5);
  const auto greedy = msc::core::greedyMaximize(sigma, cands, {.k = 2});
  EXPECT_TRUE(greedy.placement.empty());  // nothing to improve
}

TEST(Degenerate, NoPairs) {
  Instance inst(msc::test::lineGraph(5), {}, 1.0);
  SigmaEvaluator sigma(inst);
  EXPECT_DOUBLE_EQ(sigma.value({}), 0.0);
  const auto cands = CandidateSet::allPairs(5);
  const auto aa = msc::core::sandwichApproximation(inst, cands, {.k = 2});
  EXPECT_DOUBLE_EQ(aa.sigma, 0.0);
}

TEST(Degenerate, DisconnectedPairsNeedShortcuts) {
  msc::graph::Graph g(4);
  g.addEdge(0, 1, 0.2);
  g.addEdge(2, 3, 0.2);
  Instance inst(std::move(g), {{0, 2}, {1, 3}}, 0.5);
  SigmaEvaluator sigma(inst);
  EXPECT_DOUBLE_EQ(sigma.value({}), 0.0);
  // One bridge satisfies both pairs: 0-(1..2)-2 etc.
  EXPECT_DOUBLE_EQ(sigma.value({msc::core::Shortcut::make(1, 2)}), 2.0);
}

TEST(Degenerate, SingleNodeGraphHasNoCandidates) {
  const auto cands = CandidateSet::allPairs(1);
  EXPECT_TRUE(cands.empty());
  EXPECT_EQ(CandidateSet::allPairs(0).size(), 0u);
}

}  // namespace
