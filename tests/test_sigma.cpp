#include "core/sigma.h"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "graph/distance_oracle.h"
#include "helpers.h"
#include "obs/metrics.h"
#include "reference.h"
#include "util/rng.h"

namespace {

using msc::core::Instance;
using msc::core::Shortcut;
using msc::core::ShortcutList;
using msc::core::SigmaEvaluator;

Instance paperCounterexample() {
  // §V-A: V = {v0, v1, v2}, E = {}, all three pairs important, d_t = 1.
  msc::graph::Graph g(3);
  return Instance(std::move(g), {{0, 1}, {0, 2}, {1, 2}}, 1.0);
}

TEST(Sigma, EmptyPlacementOnDisconnectedTriple) {
  const auto inst = paperCounterexample();
  SigmaEvaluator eval(inst);
  EXPECT_DOUBLE_EQ(eval.value({}), 0.0);
  EXPECT_EQ(eval.satisfiedCount(), 0);
}

TEST(Sigma, PaperCounterexampleValues) {
  const auto inst = paperCounterexample();
  SigmaEvaluator eval(inst);
  // One shortcut satisfies exactly its own pair.
  EXPECT_DOUBLE_EQ(eval.value({Shortcut::make(0, 1)}), 1.0);
  // Two shortcuts satisfy all three pairs (the third via two 0-edges).
  EXPECT_DOUBLE_EQ(
      eval.value({Shortcut::make(0, 1), Shortcut::make(1, 2)}), 3.0);
}

TEST(Sigma, LineGraphShortcut) {
  // 0-1-2-3-4-5 unit lengths, pairs (0,5) and (1,4), threshold 2.
  Instance inst(msc::test::lineGraph(6), {{0, 5}, {1, 4}}, 2.0);
  SigmaEvaluator eval(inst);
  EXPECT_DOUBLE_EQ(eval.value({}), 0.0);
  // Shortcut (0,5) satisfies (0,5) directly AND (1,4) via 1-0-(5)-4 = 2.
  EXPECT_DOUBLE_EQ(eval.value({Shortcut::make(0, 5)}), 2.0);
  // A useless extra shortcut changes nothing.
  EXPECT_DOUBLE_EQ(eval.value({Shortcut::make(0, 5), Shortcut::make(2, 3)}),
                   2.0);
  // Shortcut (1,4) satisfies (1,4) directly and (0,5) via 0-1-(4)-5 = 2.
  EXPECT_DOUBLE_EQ(eval.value({Shortcut::make(1, 4)}), 2.0);
  // (2,3) alone satisfies (1,4) via 1-2-(3)-4 = 2 but leaves (0,5) at
  // 0-1-2-(3)-4-5 = 4 > 2.
  EXPECT_DOUBLE_EQ(eval.value({Shortcut::make(2, 3)}), 1.0);
}

TEST(Sigma, DuplicatesInPlacementAreHarmless) {
  Instance inst(msc::test::lineGraph(6), {{0, 5}}, 2.0);
  SigmaEvaluator eval(inst);
  EXPECT_DOUBLE_EQ(
      eval.value({Shortcut::make(0, 5), Shortcut::make(0, 5)}), 1.0);
}

TEST(Sigma, IncrementalMatchesWholeSet) {
  Instance inst(msc::test::lineGraph(8), {{0, 7}, {1, 6}, {2, 5}}, 2.0);
  SigmaEvaluator eval(inst);
  eval.reset();
  const ShortcutList placement{Shortcut::make(0, 7), Shortcut::make(1, 6)};
  for (const auto& f : placement) {
    const double before = eval.currentValue();
    const double gain = eval.gainIfAdd(f);
    eval.add(f);
    EXPECT_DOUBLE_EQ(eval.currentValue(), before + gain);
  }
  EXPECT_DOUBLE_EQ(eval.currentValue(), eval.value(placement));
}

TEST(Sigma, PairDistanceTracksPlacement) {
  Instance inst(msc::test::lineGraph(6), {{0, 5}}, 2.0);
  SigmaEvaluator eval(inst);
  eval.reset();
  EXPECT_DOUBLE_EQ(eval.pairDistance(0), 5.0);
  eval.add(Shortcut::make(1, 4));
  EXPECT_DOUBLE_EQ(eval.pairDistance(0), 2.0);
  EXPECT_TRUE(eval.pairSatisfied(0));
}

TEST(Sigma, EvaluateSetsState) {
  Instance inst(msc::test::lineGraph(6), {{0, 5}}, 1.0);
  SigmaEvaluator eval(inst);
  EXPECT_DOUBLE_EQ(eval.evaluate({Shortcut::make(0, 5)}), 1.0);
  EXPECT_DOUBLE_EQ(eval.evaluate({}), 0.0);  // reset works
}

// ----------------------------------------------------------- Property ----

class SigmaStrategies : public ::testing::TestWithParam<std::uint64_t> {};

// The three exact strategies: value(F) (the terminal overlay), the
// rebuilt-graph reference, and the incremental row store after add()-ing
// every shortcut of F.
void expectStrategiesAgree(SigmaEvaluator& eval,
                           const ShortcutList& placement) {
  const double whole = eval.value(placement);
  EXPECT_EQ(whole, msc::test::sigmaByRebuild(eval.instance(), placement));
  EXPECT_EQ(msc::test::incrementalValue(eval, placement), whole);
}

// 28 pair nodes on 30 nodes: with any shortcut, pair nodes + 2|F| >= n
// and the overlay spans the whole graph.
Instance crowdedInstance(std::uint64_t seed) {
  std::vector<msc::core::SocialPair> pairs;
  for (int i = 0; i < 14; ++i) pairs.push_back({2 * i, 2 * i + 1});
  return Instance(msc::test::randomGraph(30, 0.1, seed), std::move(pairs),
                  1.2);
}

TEST_P(SigmaStrategies, AllThreeStrategiesAgree) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(30, 8, 1.2, seed);
  SigmaEvaluator eval(inst);
  msc::util::Rng rng(seed ^ 0xbeefULL);
  for (int trial = 0; trial < 8; ++trial) {
    const auto placement =
        msc::test::randomPlacement(30, static_cast<int>(rng.below(6)) , rng);
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " trial=" << trial);
    expectStrategiesAgree(eval, placement);
  }
  const auto crowded = crowdedInstance(seed);
  SigmaEvaluator crowdedEval(crowded);
  for (int trial = 0; trial < 8; ++trial) {
    const auto placement =
        msc::test::randomPlacement(30, 1 + static_cast<int>(rng.below(6)), rng);
    SCOPED_TRACE(testing::Message() << "crowded seed=" << seed
                                    << " trial=" << trial);
    expectStrategiesAgree(crowdedEval, placement);
  }
}

TEST_P(SigmaStrategies, WeightedValueMatchesRebuild) {
  const std::uint64_t seed = GetParam();
  const auto inst = crowdedInstance(seed);
  const auto m = inst.pairs().size();
  msc::util::Rng rng(seed ^ 0x5eedULL);
  std::vector<double> random(m);
  for (double& w : random) w = rng.uniform(0.0, 3.0);
  SigmaEvaluator sigma(inst);
  for (const auto& weights : {std::vector<double>(m, 1.0), random}) {
    const bool unit = weights == std::vector<double>(m, 1.0);
    SigmaEvaluator eval(inst, weights);
    for (int trial = 0; trial < 8; ++trial) {
      const auto placement =
          msc::test::randomPlacement(30, static_cast<int>(rng.below(7)), rng);
      SCOPED_TRACE(testing::Message() << "seed=" << seed << " unit=" << unit
                                      << " trial=" << trial);
      const double whole = eval.value(placement);
      EXPECT_EQ(whole,
                msc::test::weightedSigmaByRebuild(inst, weights, placement));
      // add() accumulates in satisfaction order, value() in pair order.
      const double incremental = msc::test::incrementalValue(eval, placement);
      EXPECT_NEAR(incremental, whole, 1e-9);
      if (unit) {
        EXPECT_EQ(incremental, whole);
        EXPECT_EQ(whole, sigma.value(placement));
      }
    }
  }
}

TEST_P(SigmaStrategies, PairCentricUnderEvictionAgrees) {
  const std::uint64_t seed = GetParam();
  const auto unbounded = msc::test::randomInstance(40, 8, 1.2, seed);
  const int n = unbounded.graph().nodeCount();
  // Four rows of budget (two pinned landmarks) against up to 16 pair-node
  // rows plus the shortcut endpoints: rows churn on every evaluation.
  const Instance inst(
      unbounded.graph(), unbounded.pairs(), unbounded.distanceThreshold(),
      msc::core::InstanceOptions{
          .landmarkCount = 2,
          .oracleRowBudgetBytes =
              4 * msc::graph::oracleRowBytes(static_cast<std::size_t>(n))});
  std::vector<msc::graph::NodeId> outside;
  const std::unordered_set<msc::graph::NodeId> terminals(
      inst.pairNodes().begin(), inst.pairNodes().end());
  for (msc::graph::NodeId v = 0; v < n; ++v) {
    if (terminals.count(v) == 0) outside.push_back(v);
  }
  ASSERT_GE(outside.size(), 8u);

  SigmaEvaluator eval(inst);
  SigmaEvaluator unboundedEval(unbounded);
  msc::util::Rng rng(seed ^ 0xe71cULL);
  for (int trial = 0; trial < 8; ++trial) {
    const int size = 1 + static_cast<int>(rng.below(4));
    ShortcutList placement;
    while (static_cast<int>(placement.size()) < size) {
      const auto a = outside[rng.below(outside.size())];
      const auto b = outside[rng.below(outside.size())];
      if (a == b) continue;
      const auto f = Shortcut::make(a, b);
      if (!msc::core::contains(placement, f)) placement.push_back(f);
    }
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " trial=" << trial);
    expectStrategiesAgree(eval, placement);
    EXPECT_EQ(eval.value(placement), unboundedEval.value(placement));
    EXPECT_EQ(msc::core::sigmaValue(inst, placement),
              eval.value(placement));
  }
  EXPECT_GT(inst.distanceOracle().stats().rowsEvicted, 0u);
}

TEST_P(SigmaStrategies, MonotoneInPlacement) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(25, 6, 1.0, seed);
  SigmaEvaluator eval(inst);
  msc::util::Rng rng(seed ^ 0x77ULL);
  ShortcutList f;
  double prev = eval.value(f);
  for (int step = 0; step < 6; ++step) {
    const auto extra = msc::test::randomPlacement(25, 1, rng);
    if (msc::core::contains(f, extra[0])) continue;
    f.push_back(extra[0]);
    const double now = eval.value(f);
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST_P(SigmaStrategies, GainConsistentWithValue) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(20, 6, 1.0, seed);
  SigmaEvaluator eval(inst);
  msc::util::Rng rng(seed ^ 0x1234ULL);
  const auto base = msc::test::randomPlacement(20, 3, rng);
  eval.evaluate(base);
  for (int trial = 0; trial < 10; ++trial) {
    const auto extra = msc::test::randomPlacement(20, 1, rng)[0];
    auto grown = base;
    grown.push_back(extra);
    EXPECT_DOUBLE_EQ(eval.gainIfAdd(extra),
                     eval.value(grown) - eval.value(base))
        << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SigmaStrategies,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- metrics instrumentation -------------------------------------------

// Guard that enables metrics for one test and restores the default after.
struct MetricsScope {
  MetricsScope() {
    msc::obs::resetAll();
    msc::obs::setEnabled(true);
  }
  ~MetricsScope() {
    msc::obs::setEnabled(false);
    msc::obs::resetAll();
  }
};

TEST(SigmaMetrics, ValueDispatchCountsOnceAndPicksOneStrategy) {
  Instance inst(msc::test::lineGraph(6), {{0, 5}, {1, 4}}, 2.0);
  SigmaEvaluator eval(inst);
  const MetricsScope metrics;

  eval.value({Shortcut::make(0, 5)});
  EXPECT_EQ(msc::obs::counter("sigma.calls").value(), 1u);
  msc::core::sigmaValue(inst, {Shortcut::make(0, 5)});
  EXPECT_EQ(msc::obs::counter("sigma.calls").value(), 2u);
}

TEST(SigmaMetrics, WholePlacementValueMaterializesNoRows) {
  // Whole-placement sigma reads the terminal overlay only: neither value()
  // nor the one-shot sigmaValue() seeds a row store.
  const auto inst = msc::test::randomInstance(30, 8, 1.2, 7);
  SigmaEvaluator eval(inst);
  const ShortcutList f = {Shortcut::make(0, 29), Shortcut::make(3, 17)};
  const MetricsScope metrics;

  const double byEvaluator = eval.value(f);
  const double oneShot = msc::core::sigmaValue(inst, f);
  EXPECT_EQ(byEvaluator, oneShot);
  EXPECT_EQ(msc::obs::counter("rowstore.rows_materialized").value(), 0u);
  // The counter is live: the incremental path does seed rows.
  eval.reset();
  EXPECT_EQ(msc::obs::counter("rowstore.rows_materialized").value(),
            inst.pairNodes().size());
}

TEST(SigmaMetrics, IncrementalPathCountsGainsAndAdds) {
  Instance inst(msc::test::lineGraph(6), {{0, 5}, {1, 4}}, 2.0);
  SigmaEvaluator eval(inst);
  const MetricsScope metrics;

  eval.gainIfAdd(Shortcut::make(0, 5));
  eval.gainIfAdd(Shortcut::make(2, 3));
  // A scan counts every candidate it scores, and its (pair, a, b)
  // ball-product visits: 6 for (0, 5) and 11 for (1, 4) at d_t = 2.
  const auto cands = msc::core::CandidateSet::allPairs(6);
  std::vector<double> gains(cands.size());
  eval.scanGains(cands, gains, 1, {});
  eval.add(Shortcut::make(0, 5));
  EXPECT_EQ(msc::obs::counter("sigma.gain_calls").value(), 2u + cands.size());
  EXPECT_EQ(msc::obs::counter("sigma.adds").value(), 1u);
  // Both pairs were unsatisfied at every probe and at the add: 2 + 2 + 2
  // pair checks, plus the scan's 17 visits.
  EXPECT_EQ(msc::obs::counter("sigma.relaxations").value(), 23u);
}

TEST(SigmaMetrics, DisabledRegistryRecordsNothing) {
  msc::obs::resetAll();
  msc::obs::setEnabled(false);
  Instance inst(msc::test::lineGraph(6), {{0, 5}}, 2.0);
  SigmaEvaluator eval(inst);
  eval.value({Shortcut::make(0, 5)});
  eval.gainIfAdd(Shortcut::make(0, 5));
  EXPECT_EQ(msc::obs::counter("sigma.calls").value(), 0u);
  EXPECT_EQ(msc::obs::counter("sigma.gain_calls").value(), 0u);
  msc::obs::resetAll();
}

}  // namespace
