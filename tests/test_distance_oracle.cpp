// Property suite for the DistanceOracle seam (ALGORITHMS.md §15): an
// oracle whose every row materialize() built up front and the lazy oracle —
// unbounded or under a row budget that evicts — are one row cache and must
// hand out the same bits. Sweeps every src/gen generator and asserts
// bit-identical distancesFrom rows and point queries across the three, at
// 1 and 4 threads, and that sigma/mu/nu and greedy on d_t-bounded rows
// agree exactly with full rows at any threshold. Plus the corner cases:
// disconnected pairs (kInfDist), a fresh oracle holding no rows, point
// queries bit-identical to a Dijkstra row whether or not their row is
// cached (and independent of cache state), row radii (bounded rows exact
// within their radius, point queries beyond it, widening rebuilds, mixed
// radii across threads), and ShortcutRowStore vs the full-matrix
// relaxation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bounds.h"
#include "core/candidates.h"
#include "core/greedy.h"
#include "core/instance.h"
#include "core/sigma.h"
#include "graph/apsp.h"
#include "graph/dijkstra.h"
#include "graph/distance_oracle.h"
#include "graph/shortcut_distance.h"
#include "helpers.h"
#include "reference.h"
#include "util/rng.h"

namespace {

using msc::core::CandidateSet;
using msc::core::Instance;
using msc::core::MuEvaluator;
using msc::core::NuEvaluator;
using msc::core::Shortcut;
using msc::core::ShortcutList;
using msc::core::SigmaEvaluator;
using msc::core::SocialPair;
using msc::graph::DistanceMode;
using msc::graph::Graph;
using msc::graph::kInfDist;
using msc::graph::NodeId;
using msc::graph::PairCentricOracle;

using msc::test::generatorSweep;
using msc::test::medianThreshold;
using msc::test::samplePairs;

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// The entry every point query must reproduce bit for bit: the full
// Dijkstra row of min(x, y), read at max(x, y).
double rowEntry(const Graph& g, NodeId x, NodeId y) {
  return msc::graph::dijkstra(g, std::min(x, y))
      .dist[static_cast<std::size_t>(std::max(x, y))];
}

class OracleBackendEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(OracleBackendEquivalence, SigmaMuNuAgreeAcrossAllGenerators) {
  const int threads = GetParam();
  for (auto& gc : generatorSweep()) {
    SCOPED_TRACE(gc.name);
    const auto shared = std::make_shared<const Graph>(gc.graph);
    const int n = gc.graph.nodeCount();

    // Eager (every row built by materialize()), lazy unbounded, and lazy
    // under a three-row budget that evicts on almost every query. The
    // factory builds rows on demand whatever mode it is given.
    const auto eager = msc::graph::makeDistanceOracle(
        shared, DistanceMode::Dense, 8, threads);
    ASSERT_STREQ(eager->mode(), "pair_centric");
    (void)eager->materialize();
    const PairCentricOracle lazy(shared);
    const PairCentricOracle budgeted(
        shared, PairCentricOracle::Config{
                    .rowBudgetBytes = 3 * msc::graph::oracleRowBytes(
                                              static_cast<std::size_t>(n))});
    for (NodeId v = 0; v < n; ++v) {
      const auto want = eager->distancesFrom(v);
      const auto got = lazy.distancesFrom(v);
      ASSERT_EQ(want.size(), got.size());
      for (std::size_t y = 0; y < want.size(); ++y) {
        ASSERT_EQ(want[y], got[y]) << "lazy v=" << v << " y=" << y;
      }
      // Leaseless budgeted spans live until the next oracle call: compare
      // before querying it again.
      const auto evicting = budgeted.distancesFrom(v);
      for (std::size_t y = 0; y < want.size(); ++y) {
        ASSERT_EQ(want[y], evicting[y]) << "budgeted v=" << v << " y=" << y;
      }
    }
    EXPECT_GT(budgeted.stats().rowsEvicted, 0u);
    for (NodeId x = 0; x < n; x += 3) {
      for (NodeId y = 0; y < n; y += 5) {
        const double want = eager->distance(x, y);
        EXPECT_EQ(lazy.distance(x, y), want) << "x=" << x << " y=" << y;
        EXPECT_EQ(budgeted.distance(x, y), want) << "x=" << x << " y=" << y;
      }
    }

    // Same bits within d_t, so the same objective values and the same
    // greedy picks on full rows (denseT) and d_t-bounded ones (pcT).
    const auto pairs = samplePairs(gc.graph, 8, 13);
    const double dt = medianThreshold(*eager, pairs);
    const Instance denseT =
        msc::test::fullRowInstance(gc.graph, pairs, dt, threads);
    const Instance pcT(gc.graph, pairs, dt, threads);
    const auto cands = CandidateSet::allPairs(n);
    SigmaEvaluator sigmaDense(denseT);
    SigmaEvaluator sigmaPc(pcT);
    const auto greedy = msc::core::greedyMaximize(
        sigmaDense, cands, {.k = 3, .threads = threads});
    for (const ShortcutList& f : {ShortcutList{}, greedy.placement}) {
      EXPECT_EQ(sigmaDense.value(f), sigmaPc.value(f));
      MuEvaluator muDense(denseT, cands);
      MuEvaluator muPc(pcT, cands);
      EXPECT_EQ(muDense.value(f), muPc.value(f));
      NuEvaluator nuDense(denseT);
      NuEvaluator nuPc(pcT);
      EXPECT_EQ(nuDense.value(f), nuPc.value(f));
    }
    const auto greedyPc = msc::core::greedyMaximize(
        sigmaPc, cands, {.k = 3, .threads = threads});
    EXPECT_EQ(greedy.placement, greedyPc.placement);
    EXPECT_EQ(greedy.value, greedyPc.value);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, OracleBackendEquivalence,
                         ::testing::Values(1, 4));

TEST(OracleDisconnected, InfDistAgreesAndShortcutBridges) {
  // Two line components: 0-1-2-3 and 4-5-6-7; the pair (0, 7) spans them.
  Graph g(8);
  for (int v : {0, 1, 2}) g.addEdge(v, v + 1, 1.0);
  for (int v : {4, 5, 6}) g.addEdge(v, v + 1, 1.0);
  const std::vector<SocialPair> pairs = {{0, 7}, {1, 2}};

  for (const bool fullRows : {true, false}) {
    SCOPED_TRACE(fullRows ? "full rows" : "bounded rows");
    const Instance inst = fullRows ? msc::test::fullRowInstance(g, pairs, 2.5)
                                   : Instance(g, pairs, 2.5);
    EXPECT_EQ(inst.distanceOracle().distance(0, 7), kInfDist);
    EXPECT_EQ(inst.distanceOracle().distancesFrom(0)[7], kInfDist);
    SigmaEvaluator sigma(inst);
    EXPECT_EQ(sigma.value({}), 1.0);  // only (1, 2) is satisfied
    // A zero-length bridge (3, 4) makes d(0, 7) = 3 + 0 + 3... no: the
    // relaxation gives d(0,3)+d(4,7) = 3 + 3 = 6 > 2.5. Bridge the
    // endpoints directly instead: (0, 7) collapses the pair distance to 0.
    EXPECT_EQ(sigma.value({Shortcut::make(0, 7)}), 2.0);
  }
}

// Construction builds no rows: the first rows an oracle holds are the
// ones its callers ask for.
TEST(OracleConstruction, FreshOracleHoldsNoRows) {
  const auto shared =
      std::make_shared<const Graph>(msc::test::randomGraph(40, 0.1, 33));
  const PairCentricOracle oracle(shared);
  EXPECT_EQ(oracle.cachedRowCount(), 0u);
  EXPECT_EQ(oracle.stats().rowBuilds, 0u);
  EXPECT_EQ(oracle.residentBytes(), 0u);
}

// The suite keeps its name from the altQueries counter: point queries
// answered by a search rather than by a cached row.
TEST(OracleAltQuery, PointQueryBitIdenticalToRowEntry) {
  const auto g = msc::test::randomGraph(40, 0.1, 33);
  const PairCentricOracle oracle(std::make_shared<const Graph>(g));
  int searched = 0;
  for (NodeId s = 0; s < g.nodeCount(); s += 3) {
    for (NodeId t = 0; t < g.nodeCount(); t += 7) {
      // Both orientations read the row of min(s, t), which is not cached.
      EXPECT_EQ(bits(oracle.distance(s, t)), bits(rowEntry(g, s, t)))
          << "s=" << s << " t=" << t;
      if (s != t) ++searched;
    }
  }
  EXPECT_EQ(oracle.stats().altQueries, static_cast<std::uint64_t>(searched));
  EXPECT_EQ(oracle.stats().rowBuilds, 0u);  // a point query caches nothing
  EXPECT_EQ(oracle.cachedRowCount(), 0u);
}

// Across components there is no path: the search exhausts s's component
// and answers kInfDist, as the row does.
TEST(OracleAltQuery, DisconnectedPairMatchesRowEntry) {
  Graph g(8);
  for (int v : {0, 1, 2}) g.addEdge(v, v + 1, 1.0);
  for (int v : {4, 5, 6}) g.addEdge(v, v + 1, 1.0);
  const PairCentricOracle oracle(std::make_shared<const Graph>(g));
  EXPECT_EQ(oracle.distance(7, 0), kInfDist);
  EXPECT_EQ(bits(oracle.distance(0, 7)), bits(rowEntry(g, 0, 7)));
  EXPECT_EQ(bits(oracle.distance(2, 5)), bits(rowEntry(g, 2, 5)));
  EXPECT_EQ(oracle.stats().rowBuilds, 0u);
}

// The point-query bits never depend on which rows happen to be cached: on
// the path 0-1-2-3 (lengths 0.1, 0.2, 0.3) the row of 0 sums to
// 0.6000000000000001 while the row of 3 sums to 0.6. With only row 3
// cached, distance(0, 3) must still be row 0's entry (found by a search).
TEST(OracleAltQuery, PointQueryIgnoresCachedRowOfLargerEndpoint) {
  Graph g(4);
  g.addEdge(0, 1, 0.1);
  g.addEdge(1, 2, 0.2);
  g.addEdge(2, 3, 0.3);
  const PairCentricOracle oracle(std::make_shared<const Graph>(g));
  const std::vector<NodeId> onlyRow3 = {3};
  oracle.prefetchRows(onlyRow3, 1);
  ASSERT_EQ(oracle.distancesFrom(3)[0], 0.6);
  const double point = oracle.distance(0, 3);
  EXPECT_EQ(oracle.distance(3, 0), point);
  EXPECT_EQ(point, oracle.distancesFrom(0)[3]);
  EXPECT_EQ(point, 0.6000000000000001);
}

// A point query whose cached row of min(s, t) is bounded at d_t: an entry
// within d_t is served from it, an entry beyond it is not the distance, so
// a search finds it — bit-identical to the full row's entry, and without
// building a row.
TEST(OracleAltQuery, PointQueryBeyondBoundedRowRadiusIsSearched) {
  const auto g = msc::test::randomGraph(40, 0.1, 33);
  const PairCentricOracle oracle(std::make_shared<const Graph>(g));
  const NodeId s = 0;  // min(s, t) for every t above it
  const auto full = msc::graph::dijkstra(g, s).dist;
  std::vector<double> finite;
  for (const double d : full) {
    if (d > 0.0 && d != kInfDist) finite.push_back(d);
  }
  ASSERT_GE(finite.size(), 4u);
  std::sort(finite.begin(), finite.end());
  const double dt = finite[finite.size() / 2];

  const std::vector<NodeId> only = {s};
  oracle.prefetchRowsWithin(only, dt, 1);
  ASSERT_EQ(oracle.stats().rowBuilds, 1u);
  int inside = 0;
  int beyond = 0;
  for (NodeId t = s + 1; t < g.nodeCount(); ++t) {
    const std::uint64_t searchesBefore = oracle.stats().altQueries;
    const double d = oracle.distance(s, t);
    EXPECT_EQ(bits(d), bits(full[static_cast<std::size_t>(t)])) << "t=" << t;
    const bool searched = oracle.stats().altQueries > searchesBefore;
    EXPECT_EQ(searched, full[static_cast<std::size_t>(t)] > dt) << "t=" << t;
    ++(searched ? beyond : inside);
  }
  EXPECT_GT(inside, 0);
  EXPECT_GT(beyond, 0);
  EXPECT_EQ(oracle.stats().rowBuilds, 1u);  // searches never cache a row
}

// Every entry of a bounded row within its radius is the full row's entry
// bit for bit; every entry beyond it reads +inf — for every generator and
// every source, at radius 0, the median pair distance and +inf.
TEST(OracleRowRadius, BoundedRowsMatchFullRowsWithinTheirRadius) {
  for (auto& gc : generatorSweep()) {
    SCOPED_TRACE(gc.name);
    const auto shared = std::make_shared<const Graph>(gc.graph);
    const auto eager = msc::test::allRowsOracle(shared);
    const double median =
        medianThreshold(*eager, samplePairs(gc.graph, 8, 13));
    for (const double radius : {0.0, median, kInfDist}) {
      SCOPED_TRACE(radius);
      const PairCentricOracle lazy(shared);
      for (NodeId v = 0; v < gc.graph.nodeCount(); ++v) {
        const auto want = eager->distancesFrom(v);
        const auto got = lazy.distancesWithin(v, radius);
        for (std::size_t y = 0; y < want.size(); ++y) {
          ASSERT_EQ(got[y], want[y] <= radius ? want[y] : kInfDist)
              << "v=" << v << " y=" << y;
        }
      }
    }
  }
}

// A cached row serves every request up to its radius; a wider request
// rebuilds it, and the superseded data stays parked, so a span handed out
// before the rebuild is still readable (ASan checks the reads) — on an
// unbounded oracle, and under a budget while a lease is held.
TEST(OracleRowRadius, WideningRebuildKeepsEarlierSpansReadable) {
  const auto g = msc::test::randomGraph(40, 0.1, 35);
  const auto shared = std::make_shared<const Graph>(g);
  const auto eager = msc::test::allRowsOracle(shared);
  const auto n = static_cast<std::size_t>(g.nodeCount());
  const double radius = medianThreshold(*eager, samplePairs(g, 8, 17));
  for (const std::size_t budget :
       {std::size_t{0}, 2 * msc::graph::oracleRowBytes(n)}) {
    SCOPED_TRACE(budget);
    const PairCentricOracle oracle(
        shared, PairCentricOracle::Config{.rowBudgetBytes = budget});
    const auto lease = oracle.acquireRowLease();
    const NodeId v = 3;
    const auto narrow = oracle.distancesWithin(v, radius);
    EXPECT_EQ(oracle.stats().rowBuilds, 1u);
    // Narrower requests are hits on the cached row.
    EXPECT_EQ(oracle.distancesWithin(v, 0.0).data(), narrow.data());
    EXPECT_EQ(oracle.stats().rowBuilds, 1u);
    const std::size_t bytesBefore = oracle.residentBytes();

    const auto full = oracle.distancesFrom(v);
    EXPECT_EQ(oracle.stats().rowBuilds, 2u);
    EXPECT_NE(full.data(), narrow.data());
    EXPECT_EQ(oracle.residentBytes(),
              bytesBefore + msc::graph::oracleRowBytes(n));  // parked
    EXPECT_EQ(oracle.cachedRowCount(), 1u);
    const auto want = eager->distancesFrom(v);
    for (std::size_t y = 0; y < n; ++y) {
      EXPECT_EQ(full[y], want[y]) << "y=" << y;
      EXPECT_EQ(narrow[y], want[y] <= radius ? want[y] : kInfDist)
          << "y=" << y;
    }
    // Once full, every radius is a hit on the same row.
    EXPECT_EQ(oracle.distancesWithin(v, radius).data(), full.data());
    EXPECT_EQ(oracle.stats().rowBuilds, 2u);
  }
}

// Four threads requesting rows at mixed radii under a budget that evicts:
// every span read under the lease is exact within the requested radius
// (run under TSan in CI).
TEST(OracleRowRadius, ConcurrentMixedRadiiUnderBudget) {
  const auto g = msc::test::randomGraph(60, 0.08, 37);
  const auto shared = std::make_shared<const Graph>(g);
  const auto eager = msc::test::allRowsOracle(shared);
  const auto n = static_cast<std::size_t>(g.nodeCount());
  const double median = medianThreshold(*eager, samplePairs(g, 8, 19));
  const PairCentricOracle oracle(
      shared, PairCentricOracle::Config{
                  .rowBudgetBytes = 4 * msc::graph::oracleRowBytes(n)});
  const auto lease = oracle.acquireRowLease();
  const std::vector<double> radii = {0.0, median / 2, median, kInfDist};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      msc::util::Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 200; ++i) {
        const auto v = static_cast<NodeId>(rng.below(n));
        const double radius = radii[rng.below(radii.size())];
        const auto row = oracle.distancesWithin(v, radius);
        const auto want = eager->distancesFrom(v);
        for (std::size_t y = 0; y < n; ++y) {
          const bool ok = want[y] <= radius ? row[y] == want[y]
                                            : row[y] > radius;
          if (!ok) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        const auto x = static_cast<NodeId>(rng.below(n));
        if (oracle.distance(v, x) != eager->distance(v, x)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(oracle.stats().rowsEvicted, 0u);
}

TEST(ShortcutRows, RowStoreBitIdenticalToFullMatrixRelaxation) {
  // Dyadic edge lengths (multiples of 1/8) keep every path sum exact, so
  // the oracle's one-directional rows stack into the symmetric matrix the
  // full-matrix relaxation requires.
  const auto er = msc::test::randomGraph(35, 0.1, 44);
  Graph g(er.nodeCount());
  for (const auto& e : er.edges()) {
    g.addEdge(e.u, e.v, std::ceil(e.length * 8.0) / 8.0);
  }
  const auto shared = std::make_shared<const Graph>(g);
  const auto eager = msc::test::allRowsOracle(shared);
  const PairCentricOracle lazy(shared);
  const auto& base = eager->materialize();
  ASSERT_EQ(base, msc::graph::allPairsDistances(g));

  const std::vector<std::pair<NodeId, NodeId>> shortcuts = {
      {0, 34}, {5, 20}, {11, 28}};
  const auto evolved = msc::test::distancesWithShortcuts(base, shortcuts);

  for (const msc::graph::DistanceOracle* oracle :
       {static_cast<const msc::graph::DistanceOracle*>(eager.get()),
        static_cast<const msc::graph::DistanceOracle*>(&lazy)}) {
    SCOPED_TRACE(oracle == eager.get() ? "eager" : "lazy");
    const std::vector<NodeId> terminals = {0, 3, 11, 20, 34};
    msc::graph::ShortcutRowStore rows(*oracle, terminals);
    for (const auto& [a, b] : shortcuts) rows.applyZeroEdge(a, b);

    for (const NodeId v : terminals) {
      const double* row = rows.row(v);
      for (NodeId y = 0; y < g.nodeCount(); ++y) {
        EXPECT_EQ(row[y], evolved(static_cast<std::size_t>(v),
                                  static_cast<std::size_t>(y)))
            << "v=" << v << " y=" << y;
      }
    }

    // A terminal added after the shortcuts replays to the same bits.
    const NodeId late = 17;
    const double* lateRow = rows.row(late);
    for (NodeId y = 0; y < g.nodeCount(); ++y) {
      EXPECT_EQ(lateRow[y], evolved(static_cast<std::size_t>(late),
                                    static_cast<std::size_t>(y)))
          << "y=" << y;
    }
  }
}

}  // namespace
