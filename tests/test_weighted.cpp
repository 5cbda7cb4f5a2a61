// Pair weights as an input of the σ/μ/ν evaluators: unit weights reduce to
// the paper's counts, weights are validated, and a grid over generators,
// thresholds, weight shapes and thread counts checks every evaluator
// against its definition and weighted greedy/sandwich against themselves.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <tuple>

#include "core/bounds.h"
#include "core/budgeted.h"
#include "core/greedy.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "helpers.h"
#include "reference.h"
#include "util/rng.h"

namespace {

using msc::core::CandidateSet;
using msc::core::Instance;
using msc::core::Shortcut;
using msc::core::ShortcutList;

std::vector<double> unitWeights(const Instance& inst) {
  return std::vector<double>(static_cast<std::size_t>(inst.pairCount()), 1.0);
}

TEST(Weighted, UnitWeightsReduceToUnweighted) {
  const auto inst = msc::test::randomInstance(20, 8, 1.2, 1);
  const auto cands = CandidateSet::allPairs(20);
  msc::core::SigmaEvaluator sigma(inst);
  msc::core::SigmaEvaluator wsigma(inst, unitWeights(inst));
  msc::core::MuEvaluator mu(inst, cands);
  msc::core::MuEvaluator wmu(inst, cands, unitWeights(inst));
  msc::core::NuEvaluator nu(inst);
  msc::core::NuEvaluator wnu(inst, unitWeights(inst));

  msc::util::Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const auto f = msc::test::randomPlacement(
        20, static_cast<int>(rng.below(5)), rng);
    EXPECT_EQ(wsigma.value(f), sigma.value(f));
    EXPECT_EQ(wsigma.value(f), msc::test::sigmaByRebuild(inst, f));
    EXPECT_EQ(wmu.value(f), mu.value(f));
    EXPECT_EQ(wnu.value(f), nu.value(f));
  }
}

TEST(Weighted, WeightValidation) {
  const auto inst = msc::test::randomInstance(10, 4, 1.0, 2);
  const auto cands = CandidateSet::allPairs(10);
  EXPECT_THROW(msc::core::SigmaEvaluator(inst, {1.0}), std::invalid_argument);
  std::vector<double> negative(4, 1.0);
  negative[2] = -0.5;
  EXPECT_THROW(msc::core::SigmaEvaluator(inst, negative),
               std::invalid_argument);
  EXPECT_THROW(msc::core::MuEvaluator(inst, cands, negative),
               std::invalid_argument);
  std::vector<double> nan(4, 1.0);
  nan[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(msc::core::NuEvaluator(inst, nan), std::invalid_argument);
  EXPECT_THROW(msc::core::sandwichApproximation(inst, cands, {.k = 1}, nan),
               std::invalid_argument);
}

TEST(Weighted, HeavyPairDominatesGreedyChoice) {
  // Line 0..9; pair (0,9) weight 10, pair (4,5) weight 1; k = 1, dt small.
  // Direct shortcut to the heavy pair wins even though both pairs are
  // individually fixable.
  Instance inst(msc::test::lineGraph(10), {{0, 9}, {3, 6}}, 0.5);
  std::vector<double> weights{10.0, 1.0};
  msc::core::SigmaEvaluator sigma(inst, weights);
  const auto cands = CandidateSet::allPairs(10);
  const auto res = msc::core::greedyMaximize(sigma, cands, {.k = 1});
  EXPECT_DOUBLE_EQ(res.value, 10.0);
  ASSERT_EQ(res.placement.size(), 1u);
  EXPECT_EQ(res.placement[0], Shortcut::make(0, 9));
}

TEST(Weighted, IncrementalConsistency) {
  const auto inst = msc::test::randomInstance(18, 6, 1.0, 3);
  std::vector<double> weights;
  msc::util::Rng wrng(5);
  for (int i = 0; i < inst.pairCount(); ++i) {
    weights.push_back(wrng.uniform(0.1, 5.0));
  }
  msc::core::SigmaEvaluator sigma(inst, weights);
  msc::util::Rng rng(7);
  const auto placement = msc::test::randomPlacement(18, 4, rng);
  sigma.reset();
  for (const auto& f : placement) {
    const double before = sigma.currentValue();
    const double gain = sigma.gainIfAdd(f);
    sigma.add(f);
    EXPECT_NEAR(sigma.currentValue(), before + gain, 1e-9);
  }
  EXPECT_NEAR(sigma.currentValue(), sigma.value(placement), 1e-9);
}

// ----------------------------------------------------------- Property ----

class WeightedProperty : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<double> randomWeights(const Instance& inst, std::uint64_t seed) {
  msc::util::Rng rng(seed);
  std::vector<double> w;
  for (int i = 0; i < inst.pairCount(); ++i) w.push_back(rng.uniform(0.0, 4.0));
  return w;
}

TEST_P(WeightedProperty, BoundsBracketWeightedSigma) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(20, 8, 1.2, seed);
  const auto cands = CandidateSet::allPairs(20);
  const auto weights = randomWeights(inst, seed ^ 0x11ULL);
  msc::core::SigmaEvaluator sigma(inst, weights);
  msc::core::MuEvaluator mu(inst, cands, weights);
  msc::core::NuEvaluator nu(inst, weights);
  msc::util::Rng rng(seed ^ 0x22ULL);
  for (int trial = 0; trial < 10; ++trial) {
    const auto f = msc::test::randomPlacement(
        20, static_cast<int>(rng.below(6)), rng);
    const double s = sigma.value(f);
    EXPECT_LE(mu.value(f), s + 1e-9);
    EXPECT_GE(nu.value(f), s - 1e-9);
  }
}

TEST_P(WeightedProperty, WeightedBoundsAreSubmodular) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(16, 6, 1.0, seed);
  const auto cands = CandidateSet::allPairs(16);
  const auto weights = randomWeights(inst, seed ^ 0x33ULL);
  msc::core::MuEvaluator mu(inst, cands, weights);
  msc::core::NuEvaluator nu(inst, weights);
  msc::util::Rng rng(seed ^ 0x44ULL);
  for (int trial = 0; trial < 15; ++trial) {
    const auto y = msc::test::randomPlacement(16, 4, rng);
    ShortcutList x;
    for (const auto& f : y) {
      if (rng.chance(0.5)) x.push_back(f);
    }
    Shortcut f = msc::test::randomPlacement(16, 1, rng)[0];
    while (msc::core::contains(y, f)) {
      f = msc::test::randomPlacement(16, 1, rng)[0];
    }
    auto xf = x;
    xf.push_back(f);
    auto yf = y;
    yf.push_back(f);
    EXPECT_GE(mu.value(xf) - mu.value(x), mu.value(yf) - mu.value(y) - 1e-9);
    EXPECT_GE(nu.value(xf) - nu.value(x), nu.value(yf) - nu.value(y) - 1e-9);
  }
}

TEST_P(WeightedProperty, WeightedSandwichSelfConsistent) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(18, 8, 1.2, seed);
  const auto cands = CandidateSet::allPairs(18);
  const auto weights = randomWeights(inst, seed ^ 0x55ULL);
  const auto aa =
      msc::core::sandwichApproximation(inst, cands, {.k = 3}, weights);
  msc::core::SigmaEvaluator sigma(inst, weights);
  EXPECT_NEAR(sigma.value(aa.placement), aa.sigma, 1e-9);
  EXPECT_GE(aa.sigma, aa.sigmaOfSigma - 1e-9);
  if (const auto ratio = aa.dataDependentRatio()) {
    EXPECT_GE(*ratio, 0.0);
    EXPECT_LE(*ratio, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

// --------------------------------------------------------------- Grid ----

enum class Threshold { Zero, Median, Inf };
enum class WeightShape { Unit, Random, RandomWithZeros };

std::string thresholdName(Threshold t) {
  switch (t) {
    case Threshold::Zero: return "zero";
    case Threshold::Median: return "median";
    case Threshold::Inf: return "inf";
  }
  return "?";
}

std::string shapeName(WeightShape w) {
  switch (w) {
    case WeightShape::Unit: return "unit";
    case WeightShape::Random: return "random";
    case WeightShape::RandomWithZeros: return "random_zeros";
  }
  return "?";
}

std::vector<double> gridWeights(WeightShape shape, int m, std::uint64_t seed) {
  std::vector<double> w(static_cast<std::size_t>(m), 1.0);
  if (shape == WeightShape::Unit) return w;
  msc::util::Rng rng(seed);
  for (double& x : w) {
    x = rng.uniform(0.0, 4.0);
    if (shape == WeightShape::RandomWithZeros && rng.chance(0.4)) x = 0.0;
  }
  return w;
}

void expectSameGreedy(const msc::core::GreedyResult& a,
                      const msc::core::GreedyResult& b) {
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.trajectory, b.trajectory);
  EXPECT_EQ(a.gainEvaluations, b.gainEvaluations);
}

// (generator index in generatorSweep(), threshold, weight shape).
using GridParam = std::tuple<std::size_t, Threshold, WeightShape>;

class WeightedGrid : public ::testing::TestWithParam<GridParam> {};

// At every grid point: value(F) == evaluate(F) for σ/μ/ν; σ equals the
// weighted rebuild and μ/ν their definitions (tests/reference.h); gains
// equal value differences; μ <= σ <= ν; and weighted greedy, lazy greedy,
// budgeted greedy and sandwich return identical results at threads 1 and
// 4.
TEST_P(WeightedGrid, EvaluatorsMatchDefinitionsAndThreadCounts) {
  const auto [gen, threshold, shape] = GetParam();
  auto cases = msc::test::generatorSweep();
  const msc::graph::Graph& graph = cases[gen].graph;
  const int n = graph.nodeCount();
  const auto pairs = msc::test::samplePairs(graph, 10, 31 + gen);
  double dt = 0.0;
  if (threshold == Threshold::Median) {
    const Instance probe(graph, pairs, 0.0);
    dt = msc::test::medianThreshold(probe.distanceOracle(), pairs);
  } else if (threshold == Threshold::Inf) {
    dt = std::numeric_limits<double>::infinity();
  }
  const Instance inst(graph, pairs, dt);
  const auto weights = gridWeights(shape, inst.pairCount(), 97 + gen);
  const auto cands = CandidateSet::allPairs(n);
  SCOPED_TRACE(cases[gen].name + " dt=" + thresholdName(threshold) +
               " weights=" + shapeName(shape));

  msc::core::SigmaEvaluator sigma(inst, weights);
  msc::core::MuEvaluator mu(inst, cands, weights);
  msc::core::NuEvaluator nu(inst, weights);
  // Sums over different pair orders agree to rounding only.
  const double tol = 1e-9 * (1.0 + 4.0 * inst.pairCount());
  msc::util::Rng rng(5 + gen);
  for (int size = 0; size <= 3; ++size) {
    const auto f = msc::test::randomPlacement(n, size, rng);
    SCOPED_TRACE("placement size " + std::to_string(size));
    const double s = sigma.value(f);
    const double lo = mu.value(f);
    const double hi = nu.value(f);
    EXPECT_EQ(s, msc::test::weightedSigmaByRebuild(inst, weights, f));
    EXPECT_EQ(lo, msc::test::weightedMuByDefinition(inst, weights, f));
    EXPECT_EQ(hi, msc::test::weightedNuByDefinition(inst, weights, f));
    EXPECT_NEAR(sigma.evaluate(f), s, tol);
    EXPECT_EQ(mu.evaluate(f), lo);
    EXPECT_NEAR(nu.evaluate(f), hi, tol);
    EXPECT_LE(lo, s + tol);
    EXPECT_LE(s, hi + tol);
    // The states are now exactly f: every gain is a value difference.
    for (std::size_t c = 0; c < cands.size(); c += 13) {
      auto g = f;
      g.push_back(cands[c]);
      EXPECT_NEAR(sigma.gainIfAdd(cands[c]), sigma.value(g) - s, tol);
      EXPECT_NEAR(mu.gainIfAdd(cands[c]), mu.value(g) - lo, tol);
      EXPECT_NEAR(nu.gainIfAdd(cands[c]), nu.value(g) - hi, tol);
    }
  }

  const auto cost = [](const Shortcut& f) {
    return 1.0 + 0.25 * static_cast<double>((f.a + f.b) % 3);
  };
  std::vector<msc::core::GreedyResult> greedy, lazyMu, lazyNu;
  std::vector<msc::core::BudgetedResult> budgeted;
  std::vector<msc::core::SandwichResult> aa;
  for (const int threads : {1, 4}) {
    const msc::core::SolveOptions options{.k = 3, .threads = threads};
    msc::core::SigmaEvaluator s(inst, weights);
    msc::core::MuEvaluator m(inst, cands, weights);
    msc::core::NuEvaluator v(inst, weights);
    greedy.push_back(msc::core::greedyMaximize(s, cands, options));
    lazyMu.push_back(msc::core::lazyGreedyMaximize(m, cands, options));
    lazyNu.push_back(msc::core::lazyGreedyMaximize(v, cands, options));
    budgeted.push_back(
        msc::core::budgetedGreedy(s, cands, cost, 3.0, options));
    aa.push_back(
        msc::core::sandwichApproximation(inst, cands, options, weights));
  }
  expectSameGreedy(greedy[0], greedy[1]);
  expectSameGreedy(lazyMu[0], lazyMu[1]);
  expectSameGreedy(lazyNu[0], lazyNu[1]);
  EXPECT_EQ(budgeted[0].placement, budgeted[1].placement);
  EXPECT_EQ(budgeted[0].value, budgeted[1].value);
  EXPECT_EQ(aa[0].placement, aa[1].placement);
  EXPECT_EQ(aa[0].sigma, aa[1].sigma);
  EXPECT_EQ(aa[0].winner, aa[1].winner);
  EXPECT_EQ(aa[0].nuOfFnu, aa[1].nuOfFnu);
  EXPECT_EQ(aa[0].gainEvaluations, aa[1].gainEvaluations);
  // The sandwich's passes are the greedy runs above.
  EXPECT_EQ(aa[0].placementSigma, greedy[0].placement);
  EXPECT_EQ(aa[0].placementMu, lazyMu[0].placement);
  EXPECT_EQ(aa[0].placementNu, lazyNu[0].placement);
  EXPECT_NEAR(aa[0].sigma, sigma.value(aa[0].placement), tol);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WeightedGrid,
    ::testing::Combine(::testing::Range<std::size_t>(0, 6),
                       ::testing::Values(Threshold::Zero, Threshold::Median,
                                         Threshold::Inf),
                       ::testing::Values(WeightShape::Unit,
                                         WeightShape::Random,
                                         WeightShape::RandomWithZeros)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return msc::test::generatorSweep()[std::get<0>(info.param)].name + "_" +
             thresholdName(std::get<1>(info.param)) + "_" +
             shapeName(std::get<2>(info.param));
    });

}  // namespace
