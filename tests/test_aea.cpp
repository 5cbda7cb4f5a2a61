#include "core/aea.h"

#include <gtest/gtest.h>

#include "core/sigma.h"
#include "helpers.h"

namespace {

using msc::core::adaptiveEvolutionaryAlgorithm;
using msc::core::AeaConfig;
using msc::core::CandidateSet;
using msc::core::Instance;
using msc::core::SigmaEvaluator;

TEST(Aea, PlacementAlwaysExactlyK) {
  const auto inst = msc::test::randomInstance(20, 8, 1.2, 1);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(20);
  AeaConfig cfg;
  cfg.iterations = 60;
  for (const int k : {1, 3, 5}) {
    const auto result = adaptiveEvolutionaryAlgorithm(sigma, cands, {.k = k, .seed = 2}, cfg);
    EXPECT_EQ(result.placement.size(), static_cast<std::size_t>(k));
    // No duplicate shortcuts inside the placement.
    auto canon = msc::core::sorted(result.placement);
    EXPECT_EQ(std::adjacent_find(canon.begin(), canon.end()), canon.end());
  }
}

TEST(Aea, Deterministic) {
  const auto inst = msc::test::randomInstance(18, 8, 1.2, 2);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(18);
  AeaConfig cfg;
  cfg.iterations = 50;
  const auto a = adaptiveEvolutionaryAlgorithm(sigma, cands, {.k = 3, .seed = 17}, cfg);
  const auto b = adaptiveEvolutionaryAlgorithm(sigma, cands, {.k = 3, .seed = 17}, cfg);
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_DOUBLE_EQ(a.value, b.value);
}

TEST(Aea, BestByIterationNondecreasing) {
  const auto inst = msc::test::randomInstance(20, 10, 1.2, 3);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(20);
  AeaConfig cfg;
  cfg.iterations = 80;
  const auto result = adaptiveEvolutionaryAlgorithm(sigma, cands, {.k = 4, .seed = 5}, cfg);
  ASSERT_EQ(result.bestByIteration.size(), 80u);
  for (std::size_t i = 1; i < result.bestByIteration.size(); ++i) {
    EXPECT_GE(result.bestByIteration[i], result.bestByIteration[i - 1]);
  }
  EXPECT_DOUBLE_EQ(result.bestByIteration.back(), result.value);
}

TEST(Aea, ReportedValueMatchesPlacement) {
  const auto inst = msc::test::randomInstance(16, 6, 1.0, 4);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(16);
  AeaConfig cfg;
  cfg.iterations = 40;
  const auto result = adaptiveEvolutionaryAlgorithm(sigma, cands, {.k = 3, .seed = 9}, cfg);
  EXPECT_DOUBLE_EQ(sigma.value(result.placement), result.value);
}

TEST(Aea, GreedySwapsFindTinyOptimum) {
  msc::graph::Graph g(3);
  Instance inst(std::move(g), {{0, 1}, {0, 2}, {1, 2}}, 1.0);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(3);
  AeaConfig cfg;
  cfg.iterations = 50;
  const auto result = adaptiveEvolutionaryAlgorithm(sigma, cands, {.k = 2, .seed = 1}, cfg);
  EXPECT_DOUBLE_EQ(result.value, 3.0);
}

TEST(Aea, ZeroBudget) {
  const auto inst = msc::test::randomInstance(10, 4, 1.0, 5);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(10);
  AeaConfig cfg;
  cfg.iterations = 20;
  const auto result = adaptiveEvolutionaryAlgorithm(sigma, cands, {.k = 0}, cfg);
  EXPECT_TRUE(result.placement.empty());
}

TEST(Aea, Validation) {
  const auto inst = msc::test::randomInstance(10, 4, 1.0, 6);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(10);
  AeaConfig cfg;
  cfg.populationSize = 0;
  EXPECT_THROW(adaptiveEvolutionaryAlgorithm(sigma, cands, {.k = 2}, cfg),
               std::invalid_argument);
  cfg.populationSize = 5;
  cfg.delta = 1.5;
  EXPECT_THROW(adaptiveEvolutionaryAlgorithm(sigma, cands, {.k = 2}, cfg),
               std::invalid_argument);
  cfg.delta = 0.05;
  EXPECT_THROW(
      adaptiveEvolutionaryAlgorithm(
          sigma, cands,
          {.k = static_cast<int>(cands.size()) + 1}, cfg),
      std::invalid_argument);
}

TEST(Aea, PureRandomModeStillFeasible) {
  const auto inst = msc::test::randomInstance(14, 6, 1.0, 7);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(14);
  AeaConfig cfg;
  cfg.iterations = 60;
  cfg.delta = 1.0;  // always random swaps
  const auto result = adaptiveEvolutionaryAlgorithm(sigma, cands, {.k = 3, .seed = 13}, cfg);
  EXPECT_EQ(result.placement.size(), 3u);
}

}  // namespace
