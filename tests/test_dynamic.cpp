#include "core/dynamic.h"

#include <gtest/gtest.h>

#include "core/aea.h"
#include "core/ea.h"
#include "core/greedy.h"
#include "helpers.h"
#include "util/rng.h"

namespace {

using msc::core::CandidateSet;
using msc::core::DynamicProblem;
using msc::core::Instance;
using msc::core::ShortcutList;
using msc::core::SigmaEvaluator;

std::vector<Instance> makeSeries(int count, int n, std::uint64_t seed) {
  std::vector<Instance> series;
  for (int t = 0; t < count; ++t) {
    series.push_back(msc::test::randomInstance(n, 5, 1.0, seed + 10 * t));
  }
  return series;
}

TEST(Dynamic, SumEqualsPerInstanceValues) {
  auto series = makeSeries(4, 18, 100);
  // Keep copies for independent evaluation (Instance copies share state).
  const std::vector<Instance> copies = series;
  const auto cands = CandidateSet::allPairs(18);
  DynamicProblem problem(std::move(series), cands);

  msc::util::Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    const auto f = msc::test::randomPlacement(18, 3, rng);
    double expected = 0.0;
    for (const Instance& inst : copies) {
      expected += msc::core::sigmaValue(inst, f);
    }
    EXPECT_DOUBLE_EQ(problem.sigmaFn().value(f), expected);
    const auto perInstance = problem.perInstanceSigma(f);
    double sum = 0.0;
    for (const double v : perInstance) sum += v;
    EXPECT_DOUBLE_EQ(sum, expected);
  }
}

TEST(Dynamic, BoundsBracketDynamicSigma) {
  auto series = makeSeries(3, 16, 200);
  const auto cands = CandidateSet::allPairs(16);
  DynamicProblem problem(std::move(series), cands);
  msc::util::Rng rng(9);
  for (int trial = 0; trial < 8; ++trial) {
    const auto f = msc::test::randomPlacement(16, 3, rng);
    const double s = problem.sigmaFn().value(f);
    EXPECT_LE(problem.mu().value(f), s + 1e-9);
    EXPECT_GE(problem.nuFn().value(f), s - 1e-9);
  }
}

TEST(Dynamic, IncrementalSumEvaluator) {
  auto series = makeSeries(3, 15, 300);
  const auto cands = CandidateSet::allPairs(15);
  DynamicProblem problem(std::move(series), cands);
  auto& sigma = problem.sigma();
  msc::util::Rng rng(11);
  const auto placement = msc::test::randomPlacement(15, 3, rng);
  sigma.reset();
  for (const auto& f : placement) {
    const double before = sigma.currentValue();
    const double gain = sigma.gainIfAdd(f);
    sigma.add(f);
    EXPECT_DOUBLE_EQ(sigma.currentValue(), before + gain);
  }
  EXPECT_DOUBLE_EQ(sigma.currentValue(), sigma.value(placement));
}

TEST(Dynamic, GreedyAndSandwichRun) {
  auto series = makeSeries(3, 14, 400);
  const auto cands = CandidateSet::allPairs(14);
  DynamicProblem problem(std::move(series), cands);

  const auto greedy = msc::core::greedyMaximize(problem.sigma(), cands, {.k = 3});
  EXPECT_LE(greedy.placement.size(), 3u);

  const auto aa = problem.sandwich(cands, {.k = 3});
  EXPECT_GE(aa.sigma, 0.0);
  EXPECT_DOUBLE_EQ(problem.sigmaFn().value(aa.placement), aa.sigma);
  // AA dominates its own sigma-greedy component on the dynamic objective.
  EXPECT_GE(aa.sigma, aa.sigmaOfSigma);
}

TEST(Dynamic, EvolutionaryAlgorithmsRunOnDynamicObjective) {
  auto series = makeSeries(3, 12, 500);
  const auto cands = CandidateSet::allPairs(12);
  DynamicProblem problem(std::move(series), cands);

  msc::core::EaConfig eaCfg;
  eaCfg.iterations = 100;
  const auto ea = msc::core::evolutionaryAlgorithm(
      problem.sigmaFn(), cands, {.k = 3, .seed = 3}, eaCfg);
  EXPECT_LE(ea.placement.size(), 3u);
  EXPECT_DOUBLE_EQ(problem.sigmaFn().value(ea.placement), ea.value);

  msc::core::AeaConfig aeaCfg;
  aeaCfg.iterations = 30;
  const auto aea = msc::core::adaptiveEvolutionaryAlgorithm(
      problem.sigma(), cands, {.k = 3, .seed = 3}, aeaCfg);
  EXPECT_EQ(aea.placement.size(), 3u);
  EXPECT_DOUBLE_EQ(problem.sigmaFn().value(aea.placement), aea.value);
}

TEST(Dynamic, SingleInstanceSeriesMatchesStaticSigma) {
  auto series = makeSeries(1, 15, 600);
  const Instance copy = series.front();
  const auto cands = CandidateSet::allPairs(15);
  DynamicProblem problem(std::move(series), cands);
  SigmaEvaluator staticSigma(copy);
  msc::util::Rng rng(13);
  for (int trial = 0; trial < 5; ++trial) {
    const auto f = msc::test::randomPlacement(15, 2, rng);
    EXPECT_DOUBLE_EQ(problem.sigmaFn().value(f), staticSigma.value(f));
  }
}

TEST(Dynamic, Validation) {
  const auto cands = CandidateSet::allPairs(10);
  EXPECT_THROW(DynamicProblem({}, cands), std::invalid_argument);

  std::vector<Instance> mismatch;
  mismatch.push_back(msc::test::randomInstance(10, 3, 1.0, 1));
  mismatch.push_back(msc::test::randomInstance(12, 3, 1.0, 2));
  EXPECT_THROW(DynamicProblem(std::move(mismatch), cands),
               std::invalid_argument);
}

}  // namespace
