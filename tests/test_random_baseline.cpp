#include "core/random_baseline.h"

#include <gtest/gtest.h>

#include "core/sigma.h"
#include "helpers.h"

namespace {

using msc::core::CandidateSet;
using msc::core::randomBaseline;
using msc::core::RandomBaselineConfig;
using msc::core::SigmaEvaluator;

TEST(RandomBaseline, Deterministic) {
  const auto inst = msc::test::randomInstance(20, 8, 1.2, 1);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(20);
  RandomBaselineConfig cfg;
  cfg.repeats = 50;
  const auto a = randomBaseline(sigma, cands, {.k = 3, .seed = 4}, cfg);
  const auto b = randomBaseline(sigma, cands, {.k = 3, .seed = 4}, cfg);
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_DOUBLE_EQ(a.value, b.value);
}

TEST(RandomBaseline, ValueMatchesPlacementAndBoundsMean) {
  const auto inst = msc::test::randomInstance(20, 8, 1.2, 2);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(20);
  RandomBaselineConfig cfg;
  cfg.repeats = 100;
  const auto result = randomBaseline(sigma, cands, {.k = 3, .seed = 5}, cfg);
  EXPECT_DOUBLE_EQ(sigma.value(result.placement), result.value);
  EXPECT_LE(result.meanValue, result.value);
  EXPECT_EQ(result.placement.size(), 3u);
}

TEST(RandomBaseline, MoreRepeatsNeverHurt) {
  const auto inst = msc::test::randomInstance(22, 10, 1.2, 3);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(22);
  RandomBaselineConfig few;
  few.repeats = 10;
  RandomBaselineConfig many;
  many.repeats = 200;
  // Same seed: the 10 repeats are a prefix of the 200.
  const auto a = randomBaseline(sigma, cands, {.k = 3, .seed = 9}, few);
  const auto b = randomBaseline(sigma, cands, {.k = 3, .seed = 9}, many);
  EXPECT_GE(b.value, a.value);
}

TEST(RandomBaseline, BudgetLargerThanUniverse) {
  const auto inst = msc::test::randomInstance(6, 2, 1.0, 4);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(6);  // 15 candidates
  RandomBaselineConfig cfg;
  cfg.repeats = 5;
  const auto result = randomBaseline(sigma, cands, {.k = 100}, cfg);
  EXPECT_EQ(result.placement.size(), cands.size());
}

TEST(RandomBaseline, Validation) {
  const auto inst = msc::test::randomInstance(8, 2, 1.0, 5);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(8);
  RandomBaselineConfig cfg;
  cfg.repeats = 0;
  EXPECT_THROW(randomBaseline(sigma, cands, {.k = 2}, cfg),
               std::invalid_argument);
  cfg.repeats = 5;
  EXPECT_THROW(randomBaseline(sigma, cands, {.k = -1}, cfg),
               std::invalid_argument);
}

}  // namespace
