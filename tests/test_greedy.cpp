#include "core/greedy.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/bounds.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "helpers.h"

namespace {

using msc::core::CandidateSet;
using msc::core::greedyMaximize;
using msc::core::IncrementalEvaluator;
using msc::core::Instance;
using msc::core::Shortcut;
using msc::core::SigmaEvaluator;

TEST(Greedy, PicksObviousBestShortcut) {
  // Pairs (0,9) and (1,8) on a line; shortcut (0,9) fixes one, (1,8) both
  // within threshold 2? (0,9) via 0-1-(8)-9: 1+0+1=2 -> both!
  Instance inst(msc::test::lineGraph(10), {{0, 9}, {1, 8}}, 2.0);
  SigmaEvaluator eval(inst);
  const auto cands = CandidateSet::allPairs(10);
  const auto result = greedyMaximize(eval, cands, {.k = 1});
  EXPECT_DOUBLE_EQ(result.value, 2.0);
  ASSERT_EQ(result.placement.size(), 1u);
}

TEST(Greedy, RespectsBudget) {
  Instance inst(msc::test::lineGraph(12), {{0, 11}, {1, 10}, {2, 9}}, 1.0);
  SigmaEvaluator eval(inst);
  const auto cands = CandidateSet::allPairs(12);
  for (int k = 0; k <= 3; ++k) {
    const auto result = greedyMaximize(eval, cands, {.k = k});
    EXPECT_LE(result.placement.size(), static_cast<std::size_t>(k));
  }
  EXPECT_THROW(greedyMaximize(eval, cands, {.k = -1}), std::invalid_argument);
}

TEST(Greedy, StopsWhenNothingImproves) {
  // All pairs already satisfied: no pick has positive gain.
  Instance inst(msc::test::lineGraph(5), {{0, 1}}, 1.5);
  SigmaEvaluator eval(inst);
  const auto cands = CandidateSet::allPairs(5);
  const auto result = greedyMaximize(eval, cands, {.k = 3});
  EXPECT_TRUE(result.placement.empty());
  EXPECT_DOUBLE_EQ(result.value, 1.0);
}

TEST(Greedy, TrajectoryIsNondecreasingAndMatchesValue) {
  const auto inst = msc::test::randomInstance(30, 10, 1.2, 3);
  SigmaEvaluator eval(inst);
  const auto cands = CandidateSet::allPairs(30);
  const auto result = greedyMaximize(eval, cands, {.k = 5});
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_GE(result.trajectory[i], result.trajectory[i - 1]);
  }
  if (!result.trajectory.empty()) {
    EXPECT_DOUBLE_EQ(result.trajectory.back(), result.value);
  }
}

TEST(Greedy, EmptyCandidateSet) {
  Instance inst(msc::test::lineGraph(4), {{0, 3}}, 1.0);
  SigmaEvaluator eval(inst);
  CandidateSet empty((msc::core::ShortcutList()));
  const auto result = greedyMaximize(eval, empty, {.k = 3});
  EXPECT_TRUE(result.placement.empty());
}

// ----------------------------------------------------------- Property ----

// The sandwich's mu and nu passes are plain greedy. Lazy greedy would pick
// the same, because no candidate's gain ever rises from one round to the
// next, in floating point too (docs/ALGORITHMS.md §2): both are checked.
class LazyVsPlain : public ::testing::TestWithParam<std::uint64_t> {};

void expectGainsNeverRise(IncrementalEvaluator& eval,
                          const CandidateSet& cands,
                          const msc::core::ShortcutList& picks) {
  eval.reset();
  std::vector<double> before(cands.size());
  std::vector<double> after(cands.size());
  eval.scanGains(cands, before, 1, {});
  for (const Shortcut& f : picks) {
    eval.add(f);
    eval.scanGains(cands, after, 1, {});
    for (std::size_t c = 0; c < cands.size(); ++c) {
      ASSERT_LE(after[c], before[c]) << cands[c].a << "-" << cands[c].b;
    }
    before.swap(after);
  }
}

TEST_P(LazyVsPlain, IdenticalOnSubmodularMu) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(24, 8, 1.2, seed);
  const auto cands = CandidateSet::allPairs(24);
  msc::core::MuEvaluator mu(inst, cands);
  const auto plain = greedyMaximize(mu, cands, {.k = 4});
  const auto aa = msc::core::sandwichApproximation(inst, cands, {.k = 4});
  EXPECT_EQ(aa.placementMu, plain.placement);
  EXPECT_DOUBLE_EQ(mu.value(aa.placementMu), plain.value);
  expectGainsNeverRise(mu, cands, plain.placement);
}

TEST_P(LazyVsPlain, IdenticalOnSubmodularNu) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(24, 8, 1.2, seed);
  const auto cands = CandidateSet::allPairs(24);
  msc::core::NuEvaluator nu(inst);
  const auto plain = greedyMaximize(nu, cands, {.k = 4});
  const auto aa = msc::core::sandwichApproximation(inst, cands, {.k = 4});
  EXPECT_EQ(aa.placementNu, plain.placement);
  EXPECT_NEAR(aa.nuOfFnu, plain.value, 1e-9);
  expectGainsNeverRise(nu, cands, plain.placement);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyVsPlain,
                         ::testing::Range<std::uint64_t>(1, 9));

// --------------------------------------------------------- Candidates ----

TEST(CandidateSet, AllPairsSizeAndOrder) {
  const auto cands = CandidateSet::allPairs(5);
  EXPECT_EQ(cands.size(), 10u);
  EXPECT_EQ(cands[0], Shortcut::make(0, 1));
  EXPECT_EQ(cands[9], Shortcut::make(3, 4));
  EXPECT_EQ(cands.indexOf(Shortcut::make(0, 1)), 0);
  EXPECT_EQ(cands.indexOf(Shortcut::make(3, 4)), 9);
}

TEST(CandidateSet, IncidentTo) {
  const auto cands = CandidateSet::incidentTo(6, 2);
  EXPECT_EQ(cands.size(), 5u);
  for (std::size_t i = 0; i < cands.size(); ++i) {
    EXPECT_TRUE(cands[i].a == 2 || cands[i].b == 2);
  }
  EXPECT_THROW(CandidateSet::incidentTo(6, 6), std::out_of_range);
}

TEST(CandidateSet, ExplicitListNormalizedDeduplicated) {
  CandidateSet cands({{3, 1}, {1, 3}, {0, 2}});
  EXPECT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0], Shortcut::make(0, 2));
  EXPECT_EQ(cands[1], Shortcut::make(1, 3));
  EXPECT_EQ(cands.indexOf(Shortcut::make(4, 5)), -1);
}

TEST(Shortcut, MakeNormalizesAndValidates) {
  const auto f = Shortcut::make(7, 2);
  EXPECT_EQ(f.a, 2);
  EXPECT_EQ(f.b, 7);
  EXPECT_THROW(Shortcut::make(3, 3), std::invalid_argument);
}

}  // namespace
