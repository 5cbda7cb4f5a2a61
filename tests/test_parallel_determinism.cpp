// Parallel results must be BIT-IDENTICAL to sequential ones (the contract
// in ALGORITHMS.md §10): same placements in the same order, same values,
// same distance matrices — for any thread count.
#include <gtest/gtest.h>

#include <vector>

#include "core/bounds.h"
#include "core/candidates.h"
#include "core/greedy.h"
#include "core/instance.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "gen/random_geometric.h"
#include "graph/apsp.h"
#include "helpers.h"

namespace {

using msc::core::CandidateSet;
using msc::core::Instance;
using msc::core::SolveOptions;

Instance rgInstance(int nodes, double radius, int m, std::uint64_t seed) {
  msc::gen::RandomGeometricConfig cfg;
  cfg.nodes = nodes;
  cfg.radius = radius;
  cfg.seed = seed;
  auto net = msc::gen::randomGeometricConnected(cfg, 0.9, 256);
  const auto dist = msc::graph::allPairsDistances(net.graph);
  const double dt = msc::wireless::failureThresholdToDistance(0.14);
  msc::util::Rng rng(seed ^ 0x5eedULL);
  auto pairs =
      msc::core::sampleImportantPairsConnected(net.graph, dist, m, dt, rng);
  return Instance(std::move(net.graph), std::move(pairs), dt);
}

void expectSamePlacement(const msc::core::ShortcutList& a,
                         const msc::core::ShortcutList& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].a, b[i].a) << "position " << i;
    EXPECT_EQ(a[i].b, b[i].b) << "position " << i;
  }
}

TEST(ParallelDeterminism, ApspMatchesSerialAndFloydWarshallOnEr) {
  const auto g = msc::test::randomGraph(60, 0.08, 7);
  const auto serial = msc::graph::allPairsDistances(g, 1);
  const auto parallel = msc::graph::allPairsDistances(g, 8);
  const auto fw = msc::graph::allPairsDistancesFloydWarshall(g);
  const auto n = static_cast<std::size_t>(g.nodeCount());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // Serial vs parallel: bit-identical, not approximately equal.
      EXPECT_EQ(serial(i, j), parallel(i, j)) << i << "," << j;
      EXPECT_NEAR(fw(i, j), parallel(i, j), 1e-9) << i << "," << j;
    }
  }
}

TEST(ParallelDeterminism, ApspMatchesSerialOnRg) {
  msc::gen::RandomGeometricConfig cfg;
  cfg.nodes = 120;
  cfg.radius = 0.15;
  cfg.seed = 11;
  const auto net = msc::gen::randomGeometricConnected(cfg, 0.9, 256);
  const auto serial = msc::graph::allPairsDistances(net.graph, 1);
  for (const int threads : {2, 5, 8}) {
    const auto parallel = msc::graph::allPairsDistances(net.graph, threads);
    const auto n = static_cast<std::size_t>(net.graph.nodeCount());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(serial(i, j), parallel(i, j))
            << i << "," << j << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelDeterminism, GreedyIdenticalAcrossThreadCountsOnEr) {
  const auto inst = msc::test::randomInstance(40, 8, 1.5, 3);
  const auto cands = CandidateSet::allPairs(inst.graph().nodeCount());
  msc::core::SigmaEvaluator serialEval(inst);
  const auto serial =
      msc::core::greedyMaximize(serialEval, cands, SolveOptions{.k = 5});
  for (const int threads : {2, 8}) {
    msc::core::SigmaEvaluator eval(inst);
    const auto parallel = msc::core::greedyMaximize(
        eval, cands, SolveOptions{.k = 5, .threads = threads});
    expectSamePlacement(serial.placement, parallel.placement);
    EXPECT_EQ(serial.value, parallel.value);
    EXPECT_EQ(serial.gainEvaluations, parallel.gainEvaluations);
    EXPECT_EQ(serial.rounds, parallel.rounds);
  }
}

TEST(ParallelDeterminism, GreedyIdenticalAcrossThreadCountsOnRg) {
  const auto inst = rgInstance(80, 0.16, 10, 21);
  const auto cands = CandidateSet::allPairs(inst.graph().nodeCount());
  msc::core::SigmaEvaluator serialEval(inst);
  const auto serial =
      msc::core::greedyMaximize(serialEval, cands, SolveOptions{.k = 4});
  msc::core::SigmaEvaluator eval(inst);
  const auto parallel = msc::core::greedyMaximize(
      eval, cands, SolveOptions{.k = 4, .threads = 8});
  expectSamePlacement(serial.placement, parallel.placement);
  EXPECT_EQ(serial.value, parallel.value);
}

TEST(ParallelDeterminism, MuGreedyIdenticalAcrossThreadCounts) {
  const auto inst = msc::test::randomInstance(36, 8, 1.5, 9);
  const auto cands = CandidateSet::allPairs(inst.graph().nodeCount());
  msc::core::MuEvaluator serialEval(inst, cands);
  const auto serial =
      msc::core::greedyMaximize(serialEval, cands, SolveOptions{.k = 5});
  msc::core::MuEvaluator eval(inst, cands);
  const auto parallel = msc::core::greedyMaximize(
      eval, cands, SolveOptions{.k = 5, .threads = 8});
  expectSamePlacement(serial.placement, parallel.placement);
  EXPECT_EQ(serial.value, parallel.value);
  EXPECT_EQ(serial.trajectory, parallel.trajectory);
  EXPECT_EQ(serial.gainEvaluations, parallel.gainEvaluations);
}

TEST(ParallelDeterminism, SandwichIdenticalAcrossThreadCountsOnEr) {
  const auto inst = msc::test::randomInstance(32, 8, 1.5, 5);
  const auto cands = CandidateSet::allPairs(inst.graph().nodeCount());
  const auto serial =
      msc::core::sandwichApproximation(inst, cands, SolveOptions{.k = 4});
  const auto parallel = msc::core::sandwichApproximation(
      inst, cands, SolveOptions{.k = 4, .threads = 8});
  EXPECT_EQ(serial.winner, parallel.winner);
  EXPECT_EQ(serial.sigma, parallel.sigma);
  expectSamePlacement(serial.placement, parallel.placement);
  expectSamePlacement(serial.placementMu, parallel.placementMu);
  expectSamePlacement(serial.placementSigma, parallel.placementSigma);
  expectSamePlacement(serial.placementNu, parallel.placementNu);
  EXPECT_EQ(serial.sigmaOfMu, parallel.sigmaOfMu);
  EXPECT_EQ(serial.sigmaOfNu, parallel.sigmaOfNu);
  EXPECT_EQ(serial.nuOfFnu, parallel.nuOfFnu);
  EXPECT_EQ(serial.gainEvaluations, parallel.gainEvaluations);
}

TEST(ParallelDeterminism, SandwichIdenticalAcrossThreadCountsOnRg) {
  const auto inst = rgInstance(60, 0.18, 8, 33);
  const auto cands = CandidateSet::allPairs(inst.graph().nodeCount());
  const auto serial =
      msc::core::sandwichApproximation(inst, cands, SolveOptions{.k = 3});
  const auto parallel = msc::core::sandwichApproximation(
      inst, cands, SolveOptions{.k = 3, .threads = 8});
  EXPECT_EQ(serial.winner, parallel.winner);
  EXPECT_EQ(serial.sigma, parallel.sigma);
  expectSamePlacement(serial.placement, parallel.placement);
}

TEST(ParallelDeterminism, ThreadsZeroMeansAllCoresAndStaysDeterministic) {
  const auto inst = msc::test::randomInstance(30, 6, 1.5, 13);
  const auto cands = CandidateSet::allPairs(inst.graph().nodeCount());
  msc::core::SigmaEvaluator a(inst), b(inst);
  const auto serial = msc::core::greedyMaximize(a, cands, SolveOptions{.k = 3});
  const auto allCores = msc::core::greedyMaximize(
      b, cands, SolveOptions{.k = 3, .threads = 0});
  expectSamePlacement(serial.placement, allCores.placement);
  EXPECT_EQ(serial.value, allCores.value);
}

}  // namespace
