#include "core/robust.h"

#include <gtest/gtest.h>

#include "core/aea.h"
#include "core/dynamic.h"
#include "core/greedy.h"
#include "core/sigma.h"
#include "helpers.h"
#include "util/rng.h"

namespace {

using msc::core::CandidateSet;
using msc::core::Instance;
using msc::core::MinEvaluator;
using msc::core::SigmaEvaluator;

struct Scenario {
  std::vector<Instance> instances;
  std::vector<std::unique_ptr<SigmaEvaluator>> evals;
  std::unique_ptr<MinEvaluator> robust;

  explicit Scenario(int count, std::uint64_t seed) {
    for (int t = 0; t < count; ++t) {
      instances.push_back(msc::test::randomInstance(16, 6, 1.0, seed + 5 * t));
    }
    std::vector<msc::core::IncrementalEvaluator*> kids;
    std::vector<const msc::core::SetFunction*> fns;
    for (const auto& inst : instances) {
      evals.push_back(std::make_unique<SigmaEvaluator>(inst));
      kids.push_back(evals.back().get());
      fns.push_back(evals.back().get());
    }
    robust = std::make_unique<MinEvaluator>(kids, fns, "robust");
  }
};

TEST(Robust, ValueIsMinimumOfScenarios) {
  Scenario s(3, 100);
  msc::util::Rng rng(1);
  for (int trial = 0; trial < 8; ++trial) {
    const auto f = msc::test::randomPlacement(16, 3, rng);
    double expected = std::numeric_limits<double>::infinity();
    for (const auto& inst : s.instances) {
      expected = std::min(expected, msc::core::sigmaValue(inst, f));
    }
    EXPECT_DOUBLE_EQ(s.robust->value(f), expected);
  }
}

TEST(Robust, IncrementalConsistency) {
  Scenario s(3, 200);
  msc::util::Rng rng(2);
  const auto placement = msc::test::randomPlacement(16, 4, rng);
  s.robust->reset();
  for (const auto& f : placement) {
    const double before = s.robust->currentValue();
    const double gain = s.robust->gainIfAdd(f);
    s.robust->add(f);
    EXPECT_DOUBLE_EQ(s.robust->currentValue(), before + gain);
  }
  EXPECT_DOUBLE_EQ(s.robust->currentValue(), s.robust->value(placement));
}

TEST(Robust, GreedyAndAeaRunOnRobustObjective) {
  Scenario s(3, 300);
  const auto cands = CandidateSet::allPairs(16);
  const auto greedy = msc::core::greedyMaximize(*s.robust, cands, {.k = 3});
  EXPECT_LE(greedy.placement.size(), 3u);
  EXPECT_DOUBLE_EQ(s.robust->value(greedy.placement), greedy.value);

  msc::core::AeaConfig cfg;
  cfg.iterations = 40;
  const auto aea =
      msc::core::adaptiveEvolutionaryAlgorithm(*s.robust, cands, {.k = 3, .seed = 3}, cfg);
  EXPECT_EQ(aea.placement.size(), 3u);
  EXPECT_DOUBLE_EQ(s.robust->value(aea.placement), aea.value);
}

TEST(Robust, PlainGreedyStallsOnMinPlateau) {
  // Two conflicting scenarios on edgeless graphs: every single edge helps
  // at most one scenario, so the min objective has zero marginal gain for
  // every first pick and plain greedy returns the empty placement. This is
  // the documented failure mode that motivates robustSaturate.
  msc::graph::Graph g1(8), g2(8);
  Instance a(std::move(g1), {{0, 1}, {2, 3}, {4, 5}}, 0.5);
  Instance b(std::move(g2), {{6, 7}}, 0.5);
  SigmaEvaluator ea(a), eb(b);
  MinEvaluator robust({&ea, &eb}, {&ea, &eb});
  const auto cands = CandidateSet::allPairs(8);
  const auto plain = msc::core::greedyMaximize(robust, cands, {.k = 2});
  EXPECT_TRUE(plain.placement.empty());
  EXPECT_DOUBLE_EQ(plain.value, 0.0);
}

TEST(Robust, SaturateEscapesThePlateau) {
  msc::graph::Graph g1(8), g2(8);
  Instance a(std::move(g1), {{0, 1}, {2, 3}, {4, 5}}, 0.5);
  Instance b(std::move(g2), {{6, 7}}, 0.5);
  SigmaEvaluator ea(a), eb(b);
  const auto cands = CandidateSet::allPairs(8);

  const auto result = msc::core::robustSaturate(
      {&ea, &eb}, {&ea, &eb}, cands, {.k = 2}, /*maxTarget=*/3.0);
  // With k = 2 the saturated greedy covers scenario b's lone pair AND one
  // pair of scenario a: worst case 1.
  EXPECT_DOUBLE_EQ(result.worstCase, 1.0);
  EXPECT_DOUBLE_EQ(result.targetReached, 1.0);
  EXPECT_LE(result.placement.size(), 2u);

  // The sum-optimized placement can be strictly worse on the worst case
  // (it may spend both edges on scenario a).
  SigmaEvaluator sa(a), sb(b);
  msc::core::SumEvaluator sum({&sa, &sb}, {&sa, &sb}, "sum");
  const auto sumGreedy = msc::core::greedyMaximize(sum, cands, {.k = 2});
  MinEvaluator robust({&sa, &sb}, {&sa, &sb});
  EXPECT_LE(robust.value(sumGreedy.placement), result.worstCase + 1e-9);
}

TEST(Robust, SaturateOnRandomScenarios) {
  Scenario s(3, 400);
  std::vector<msc::core::IncrementalEvaluator*> kids;
  std::vector<const msc::core::SetFunction*> fns;
  for (const auto& e : s.evals) {
    kids.push_back(e.get());
    fns.push_back(e.get());
  }
  const auto cands = CandidateSet::allPairs(16);
  const auto result = msc::core::robustSaturate(kids, fns, cands, {.k = 4}, 6.0);
  EXPECT_DOUBLE_EQ(s.robust->value(result.placement), result.worstCase);
  EXPECT_LE(result.placement.size(), 4u);
  // Never worse than doing nothing.
  EXPECT_GE(result.worstCase, s.robust->value({}));
}

TEST(Robust, SaturateValidation) {
  Scenario s(2, 500);
  std::vector<msc::core::IncrementalEvaluator*> kids;
  std::vector<const msc::core::SetFunction*> fns;
  for (const auto& e : s.evals) {
    kids.push_back(e.get());
    fns.push_back(e.get());
  }
  const auto cands = CandidateSet::allPairs(16);
  EXPECT_THROW(msc::core::robustSaturate({}, {}, cands, {.k = 2}, 3.0),
               std::invalid_argument);
  EXPECT_THROW(msc::core::robustSaturate(kids, fns, cands, {.k = -1}, 3.0),
               std::invalid_argument);
  EXPECT_THROW(msc::core::robustSaturate(kids, fns, cands, {.k = 2}, -1.0),
               std::invalid_argument);
}

TEST(Robust, TruncatedSumBasics) {
  Scenario s(2, 600);
  std::vector<msc::core::IncrementalEvaluator*> kids;
  std::vector<const msc::core::SetFunction*> fns;
  for (const auto& e : s.evals) {
    kids.push_back(e.get());
    fns.push_back(e.get());
  }
  msc::core::TruncatedSumEvaluator trunc(kids, fns, 2.0);
  msc::util::Rng rng(3);
  for (int trial = 0; trial < 6; ++trial) {
    const auto f = msc::test::randomPlacement(16, 3, rng);
    double expected = 0.0;
    for (const auto& inst : s.instances) {
      expected += std::min(msc::core::sigmaValue(inst, f), 2.0);
    }
    EXPECT_DOUBLE_EQ(trunc.value(f), expected);
  }
  EXPECT_THROW(msc::core::TruncatedSumEvaluator(kids, fns, -1.0),
               std::invalid_argument);
}

TEST(Robust, Validation) {
  EXPECT_THROW(MinEvaluator({}, {}), std::invalid_argument);
}

}  // namespace
