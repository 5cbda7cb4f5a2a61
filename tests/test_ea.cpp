#include "core/ea.h"

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/sigma.h"
#include "helpers.h"

namespace {

using msc::core::CandidateSet;
using msc::core::EaConfig;
using msc::core::evolutionaryAlgorithm;
using msc::core::Instance;
using msc::core::SigmaEvaluator;

TEST(Ea, FeasibleAndDeterministic) {
  const auto inst = msc::test::randomInstance(20, 8, 1.2, 1);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(20);
  EaConfig cfg;
  cfg.iterations = 200;
  const auto a = evolutionaryAlgorithm(sigma, cands, {.k = 3, .seed = 42}, cfg);
  const auto b = evolutionaryAlgorithm(sigma, cands, {.k = 3, .seed = 42}, cfg);
  EXPECT_LE(a.placement.size(), 3u);
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_DOUBLE_EQ(a.value, b.value);
  EXPECT_EQ(a.bestByIteration.size(), 200u);
}

TEST(Ea, DifferentSeedsCanDiffer) {
  const auto inst = msc::test::randomInstance(20, 8, 1.2, 2);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(20);
  EaConfig cfgA;
  cfgA.iterations = 100;
  EaConfig cfgB = cfgA;
  const auto a = evolutionaryAlgorithm(sigma, cands, {.k = 3, .seed = 1}, cfgA);
  const auto b = evolutionaryAlgorithm(sigma, cands, {.k = 3, .seed = 999}, cfgB);
  // Values may coincide, but runs must at least be independent objects.
  EXPECT_LE(a.placement.size(), 3u);
  EXPECT_LE(b.placement.size(), 3u);
}

TEST(Ea, BestByIterationIsNondecreasing) {
  const auto inst = msc::test::randomInstance(18, 8, 1.2, 3);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(18);
  EaConfig cfg;
  cfg.iterations = 300;
  const auto result = evolutionaryAlgorithm(sigma, cands, {.k = 3, .seed = 7}, cfg);
  for (std::size_t i = 1; i < result.bestByIteration.size(); ++i) {
    EXPECT_GE(result.bestByIteration[i], result.bestByIteration[i - 1]);
  }
  EXPECT_DOUBLE_EQ(result.bestByIteration.back(), result.value);
}

TEST(Ea, ReportedValueMatchesPlacement) {
  const auto inst = msc::test::randomInstance(16, 6, 1.0, 4);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(16);
  EaConfig cfg;
  cfg.iterations = 150;
  const auto result = evolutionaryAlgorithm(sigma, cands, {.k = 3, .seed = 11}, cfg);
  EXPECT_DOUBLE_EQ(sigma.value(result.placement), result.value);
}

TEST(Ea, ReachesOptimumOnTinyInstanceWithEnoughIterations) {
  // Paper triple: optimum with k = 2 is 3 (two shortcuts satisfy all pairs).
  msc::graph::Graph g(3);
  Instance inst(std::move(g), {{0, 1}, {0, 2}, {1, 2}}, 1.0);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(3);
  EaConfig cfg;
  cfg.iterations = 2000;
  const auto result = evolutionaryAlgorithm(sigma, cands, {.k = 2, .seed = 5}, cfg);
  EXPECT_DOUBLE_EQ(result.value, 3.0);
}

TEST(Ea, ZeroIterationsReturnsEmpty) {
  const auto inst = msc::test::randomInstance(10, 4, 1.0, 5);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(10);
  EaConfig cfg;
  cfg.iterations = 0;
  const auto result = evolutionaryAlgorithm(sigma, cands, {.k = 2}, cfg);
  EXPECT_TRUE(result.placement.empty());
  EXPECT_DOUBLE_EQ(result.value, sigma.value({}));
}

TEST(Ea, Validation) {
  const auto inst = msc::test::randomInstance(10, 4, 1.0, 6);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(10);
  EaConfig cfg;
  cfg.iterations = -1;
  EXPECT_THROW(evolutionaryAlgorithm(sigma, cands, {.k = 2}, cfg),
               std::invalid_argument);
  cfg.iterations = 10;
  cfg.flipProbability = 1.5;
  EXPECT_THROW(evolutionaryAlgorithm(sigma, cands, {.k = 2}, cfg),
               std::invalid_argument);
  cfg.flipProbability.reset();
  EXPECT_THROW(evolutionaryAlgorithm(sigma, cands, {.k = -2}, cfg),
               std::invalid_argument);
}

TEST(Ea, CustomFlipProbability) {
  const auto inst = msc::test::randomInstance(12, 5, 1.0, 7);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(12);
  EaConfig cfg;
  cfg.iterations = 100;
  cfg.flipProbability = 0.05;
  const auto result = evolutionaryAlgorithm(sigma, cands, {.k = 3, .seed = 3}, cfg);
  EXPECT_LE(result.placement.size(), 3u);
}

}  // namespace
