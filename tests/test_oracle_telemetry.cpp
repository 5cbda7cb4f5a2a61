// Telemetry and eviction suite for the oracle observability layer
// (ALGORITHMS.md §16). Two properties anchor it:
//
//   1. Instrumentation is invisible: solver results are bit-identical with
//      metrics on (counters + a bound RequestContext) and off, on full and
//      on d_t-bounded rows, at 1 and 4 threads.
//   2. Eviction is invisible: under an arbitrarily small row budget the
//      pair-centric oracle stays byte-bounded, re-materializes evicted
//      rows bit-identically, and greedy produces the same placement as an
//      unbounded run. Leases park evicted rows so spans stay valid.
//
// The concurrent cases double as the TSan coverage for the eviction path
// (ci.yml runs this binary under -fsanitize=thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/candidates.h"
#include "core/greedy.h"
#include "core/instance.h"
#include "core/sigma.h"
#include "graph/distance_oracle.h"
#include "helpers.h"
#include "obs/context.h"
#include "obs/metrics.h"

namespace {

using msc::core::CandidateSet;
using msc::core::Instance;
using msc::core::InstanceOptions;
using msc::core::ShortcutList;
using msc::core::SigmaEvaluator;
using msc::core::SocialPair;
using msc::graph::Graph;
using msc::graph::NodeId;
using msc::graph::OracleStats;
using msc::graph::oracleRowBytes;
using msc::graph::PairCentricOracle;

std::vector<SocialPair> spreadPairs(int n, int m) {
  std::vector<SocialPair> pairs;
  for (int i = 0; i < m; ++i) {
    const auto u = static_cast<NodeId>(i);
    const auto w = static_cast<NodeId>(n - 1 - i);
    if (u == w) continue;
    pairs.push_back({std::min(u, w), std::max(u, w)});
  }
  return pairs;
}

struct SolveResult {
  ShortcutList placement;
  double value = 0.0;
  double sigmaEmpty = 0.0;
};

SolveResult solveOnce(const Graph& g, const std::vector<SocialPair>& pairs,
                      bool fullRows, int threads) {
  const Instance inst = fullRows
                            ? msc::test::fullRowInstance(g, pairs, 2.5, threads)
                            : Instance(g, pairs, 2.5, threads);
  SigmaEvaluator sigma(inst);
  const auto cands = CandidateSet::allPairs(g.nodeCount());
  const auto greedy =
      msc::core::greedyMaximize(sigma, cands, {.k = 3, .threads = threads});
  return {greedy.placement, greedy.value, sigma.value({})};
}

class TelemetryBitIdentity : public ::testing::TestWithParam<int> {};

// Request metrics on vs off, i.e. a request context bound vs not: same bits
// everywhere the solvers look. The telemetry layer must never perturb a
// result.
TEST_P(TelemetryBitIdentity, SolverResultsIdenticalWithMetricsOnAndOff) {
  const int threads = GetParam();
  const auto g = msc::test::randomGraph(60, 0.08, 17);
  const auto pairs = spreadPairs(g.nodeCount(), 8);

  for (const bool fullRows : {true, false}) {
    SCOPED_TRACE(fullRows ? "full rows" : "bounded rows");
    const SolveResult off = solveOnce(g, pairs, fullRows, threads);

    msc::obs::RequestContext ctx("\"telemetry-test\"");
    SolveResult on;
    {
      msc::obs::ScopedRequestBind bind(&ctx);
      on = solveOnce(g, pairs, fullRows, threads);
    }

    EXPECT_EQ(off.placement, on.placement);
    EXPECT_EQ(off.value, on.value);
    EXPECT_EQ(off.sigmaEmpty, on.sigmaEmpty);
    // And the instrumented run actually measured something.
    EXPECT_TRUE(ctx.oracle().any());
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, TelemetryBitIdentity,
                         ::testing::Values(1, 4));

// The oracle charges the bound request context with the same event kinds
// its own counters record: point queries, row queries, row builds.
TEST(OracleUsageCharging, BoundContextSeesQueryMix) {
  const auto g = msc::test::randomGraph(50, 0.1, 23);
  const auto shared = std::make_shared<const Graph>(g);
  const PairCentricOracle oracle(shared);

  msc::obs::RequestContext ctx("\"charge-test\"");
  {
    msc::obs::ScopedRequestBind bind(&ctx);
    (void)oracle.distance(1, 47);          // point query (a search)
    (void)oracle.distancesFrom(3);         // row build
    (void)oracle.distancesFrom(3);         // row hit
  }
  const auto& u = ctx.oracle();
  EXPECT_TRUE(u.any());
  EXPECT_GE(u.pointQueries.load(), 1u);
  EXPECT_GE(u.rowQueries.load(), 2u);
  EXPECT_GE(u.rowBuilds.load(), 1u);
  EXPECT_GE(u.rowHits.load(), 1u);
  EXPECT_GE(u.altQueries.load(), 1u);

  // The oracle's own stats saw the same mix (they are always on).
  const OracleStats s = oracle.stats();
  EXPECT_GE(s.pointQueries, 1u);
  EXPECT_GE(s.rowQueries, 2u);
  EXPECT_GE(s.rowHits, 1u);
}

// ---- eviction under a row budget ----------------------------------------

// Small budget, many distinct row queries: resident bytes stay bounded
// (budgeted rows + the one protected just-built row),
// evictions actually happen, and every row equals the unbounded oracle's
// row bit for bit.
TEST(OracleEviction, BoundedResidencyAndBitIdenticalRows) {
  const auto g = msc::test::randomGraph(120, 0.06, 31);
  const auto shared = std::make_shared<const Graph>(g);
  const std::size_t rowBytes =
      oracleRowBytes(static_cast<std::size_t>(g.nodeCount()));
  const std::size_t budget = 8 * rowBytes;

  const PairCentricOracle unbounded(shared);
  const PairCentricOracle budgeted(
      shared, PairCentricOracle::Config{.rowBudgetBytes = budget});
  ASSERT_EQ(budgeted.rowBudgetBytes(), budget);

  std::size_t maxResident = 0;
  for (int iter = 0; iter < 150; ++iter) {
    const auto v = static_cast<NodeId>((iter * 7) % g.nodeCount());
    const auto got = budgeted.distancesFrom(v);
    const auto want = unbounded.distancesFrom(v);
    ASSERT_EQ(got.size(), want.size());
    // Compare before the next oracle call: leaseless spans are only valid
    // until then.
    for (std::size_t y = 0; y < got.size(); ++y) {
      ASSERT_EQ(got[y], want[y]) << "v=" << v << " y=" << y;
    }
    maxResident = std::max(maxResident, budgeted.residentBytes());
  }

  const OracleStats s = budgeted.stats();
  EXPECT_GT(s.rowsEvicted, 0u);
  EXPECT_GT(s.rowBuilds, s.rowHits);  // re-materialization dominated
  // No lease held, so nothing is parked: the budgeted cache + one
  // protected just-inserted row bound the footprint.
  EXPECT_LE(maxResident, budget + rowBytes);
  EXPECT_LE(budgeted.cachedRowCount(), budget / rowBytes + 1);
}

// An evicted row re-materializes to the same bits, and the rebuild is
// counted as a build (not a hit).
TEST(OracleEviction, RematerializedRowBitIdentical) {
  const auto g = msc::test::randomGraph(100, 0.07, 41);
  const auto shared = std::make_shared<const Graph>(g);
  const std::size_t rowBytes =
      oracleRowBytes(static_cast<std::size_t>(g.nodeCount()));
  const PairCentricOracle oracle(
      shared, PairCentricOracle::Config{.rowBudgetBytes = 4 * rowBytes});

  const NodeId v = 55;
  const auto first = oracle.distancesFrom(v);
  const std::vector<double> snapshot(first.begin(), first.end());
  const std::uint64_t buildsBefore = oracle.stats().rowBuilds;

  // Touch enough other rows to push v out of the 4-row budget.
  for (NodeId u = 0; u < 10; ++u) (void)oracle.distancesFrom(u);
  ASSERT_GT(oracle.stats().rowsEvicted, 0u);

  const auto again = oracle.distancesFrom(v);
  EXPECT_GT(oracle.stats().rowBuilds, buildsBefore);
  ASSERT_EQ(again.size(), snapshot.size());
  for (std::size_t y = 0; y < snapshot.size(); ++y) {
    EXPECT_EQ(again[y], snapshot[y]) << "y=" << y;
  }
}

// Lease-based span safety: while a lease is held, rows evicted under the
// budget are parked (still resident, spans stay valid); releasing the
// last lease lets the next oracle call free them.
TEST(OracleEviction, LeaseParksEvictedRowsUntilReleased) {
  const auto g = msc::test::randomGraph(100, 0.07, 43);
  const auto shared = std::make_shared<const Graph>(g);
  const std::size_t rowBytes =
      oracleRowBytes(static_cast<std::size_t>(g.nodeCount()));
  const PairCentricOracle oracle(
      shared, PairCentricOracle::Config{.rowBudgetBytes = 3 * rowBytes});

  auto lease = oracle.acquireRowLease();
  ASSERT_NE(lease, nullptr);

  const NodeId v = 77;
  const auto span = oracle.distancesFrom(v);
  const std::vector<double> snapshot(span.begin(), span.end());
  const double* const data = span.data();

  for (NodeId u = 0; u < 12; ++u) (void)oracle.distancesFrom(u);
  ASSERT_GT(oracle.stats().rowsEvicted, 0u);

  // The span handed out before the evictions still reads the same bits
  // from the same storage (the row was parked, not freed).
  EXPECT_EQ(span.data(), data);
  for (std::size_t y = 0; y < snapshot.size(); ++y) {
    ASSERT_EQ(span[y], snapshot[y]) << "y=" << y;
  }
  const std::size_t residentWithLease = oracle.residentBytes();

  lease.reset();
  (void)oracle.distancesFrom(0);  // next call frees the parked rows
  EXPECT_LT(oracle.residentBytes(), residentWithLease);
}

// The full-row reference (every row built by materialize(), no budget):
// nothing is evicted, no lease to hold.
TEST(OracleEviction, DenseBackendNeverEvicts) {
  const auto g = msc::test::randomGraph(40, 0.1, 47);
  const auto oracle =
      msc::test::allRowsOracle(std::make_shared<const Graph>(g));
  const OracleStats built = oracle->stats();
  (void)oracle->distancesFrom(3);
  (void)oracle->distance(1, 2);
  const OracleStats s = oracle->stats();
  EXPECT_EQ(s.rowsEvicted, 0u);
  EXPECT_EQ(oracle->acquireRowLease(), nullptr);
  // All rows were built up front (by materialize(), not by these
  // queries): every later query is a hit.
  EXPECT_EQ(s.rowsResident, static_cast<std::size_t>(g.nodeCount()));
  EXPECT_EQ(s.rowBuilds, built.rowBuilds);
  EXPECT_EQ(s.rowHits - built.rowHits, s.rowQueries - built.rowQueries);
  EXPECT_EQ(s.altQueries, 0u);
}

// End-to-end eviction invisibility: a greedy solve on a budget so small
// that rows churn constantly places the same shortcuts at the same value
// as the unbounded run. The Instance's own lease keeps every evaluator
// span valid across the churn.
TEST(OracleEviction, GreedyPlacementMatchesUnboundedUnderPressure) {
  const auto g = msc::test::randomGraph(150, 0.05, 53);
  const auto pairs = spreadPairs(g.nodeCount(), 12);
  const std::size_t rowBytes =
      oracleRowBytes(static_cast<std::size_t>(g.nodeCount()));

  const auto solveWithBudget = [&](std::size_t budget) {
    Graph copy = g;
    Instance inst(std::move(copy), pairs, 3.0,
                  InstanceOptions{.threads = 4,
                                  .oracleRowBudgetBytes = budget});
    SigmaEvaluator sigma(inst);
    const auto cands = CandidateSet::allPairs(g.nodeCount());
    const auto greedy =
        msc::core::greedyMaximize(sigma, cands, {.k = 3, .threads = 4});
    return std::make_pair(greedy, inst.distanceOracle().stats());
  };

  const auto [unbounded, statsUnbounded] = solveWithBudget(0);
  // Budget below the pair-endpoint working set (24 endpoint rows) so the
  // solve must evict.
  const auto [budgeted, statsBudgeted] = solveWithBudget(10 * rowBytes);

  EXPECT_EQ(unbounded.placement, budgeted.placement);
  EXPECT_EQ(unbounded.value, budgeted.value);
  EXPECT_EQ(statsUnbounded.rowsEvicted, 0u);
  EXPECT_GT(statsBudgeted.rowsEvicted, 0u);
}

// Concurrent mixed queries under a tiny budget, every thread holding a
// lease — the TSan case for the eviction path. Each thread verifies its
// rows against a private unbounded reference.
TEST(OracleEviction, ConcurrentQueriesUnderBudgetStayCorrect) {
  const auto g = msc::test::randomGraph(90, 0.08, 59);
  const auto shared = std::make_shared<const Graph>(g);
  const std::size_t rowBytes =
      oracleRowBytes(static_cast<std::size_t>(g.nodeCount()));
  const PairCentricOracle budgeted(
      shared, PairCentricOracle::Config{.rowBudgetBytes = 4 * rowBytes});
  const PairCentricOracle reference(shared);
  for (NodeId v = 0; v < g.nodeCount(); ++v) (void)reference.distancesFrom(v);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      auto lease = budgeted.acquireRowLease();
      for (int iter = 0; iter < 40; ++iter) {
        const auto v =
            static_cast<NodeId>((t * 31 + iter * 7) % g.nodeCount());
        const auto got = budgeted.distancesFrom(v);
        const auto want = reference.distancesFrom(v);
        for (std::size_t y = 0; y < got.size(); ++y) {
          if (got[y] != want[y]) mismatches.fetch_add(1);
        }
        const auto s = static_cast<NodeId>((t * 13 + iter) % g.nodeCount());
        const auto u = static_cast<NodeId>((t * 17 + iter * 3) %
                                           g.nodeCount());
        // Point queries are bit-exact too, whatever is cached: both
        // oracles answer from the row of min(s, u) or a search for it.
        if (budgeted.distance(s, u) != reference.distance(s, u)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(budgeted.stats().rowsEvicted, 0u);
}

}  // namespace
