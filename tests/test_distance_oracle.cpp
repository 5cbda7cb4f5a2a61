// Property suite for the DistanceOracle seam (ALGORITHMS.md §15): the
// dense mode (every row built up front) and the lazy pair-centric mode —
// unbounded or under a row budget that evicts — are one row cache and must
// hand out the same bits. Sweeps every src/gen generator and asserts
// bit-identical distancesFrom rows and point queries across the three, at
// 1 and 4 threads, and that sigma/mu/nu and greedy therefore agree exactly
// at any threshold. Plus the corner cases: disconnected pairs (kInfDist),
// degenerate landmark counts, ALT point-query vs row bit-identity,
// point queries independent of cache state, and ShortcutRowStore vs the
// full-matrix relaxation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bounds.h"
#include "core/candidates.h"
#include "core/greedy.h"
#include "core/instance.h"
#include "core/sigma.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "gen/gowalla.h"
#include "gen/grid.h"
#include "gen/random_geometric.h"
#include "gen/watts_strogatz.h"
#include "graph/apsp.h"
#include "graph/distance_oracle.h"
#include "graph/shortcut_distance.h"
#include "helpers.h"
#include "reference.h"
#include "util/rng.h"

namespace {

using msc::core::CandidateSet;
using msc::core::Instance;
using msc::core::InstanceOptions;
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

struct GenCase {
  std::string name;
  Graph graph;
};

// One representative topology per generator, sized so the dense path stays
// cheap but paths are several edges long (where row directions differ in
// the last ulp).
std::vector<GenCase> generatorSweep() {
  std::vector<GenCase> cases;
  {
    msc::gen::GridConfig cfg;
    cfg.width = 7;
    cfg.height = 5;
    cases.push_back({"grid", msc::gen::grid(cfg).graph});
  }
  {
    msc::gen::RandomGeometricConfig cfg;
    cfg.nodes = 60;
    cfg.radius = 0.2;
    cfg.seed = 3;
    cases.push_back({"random_geometric", msc::gen::randomGeometric(cfg).graph});
  }
  {
    msc::gen::ErdosRenyiConfig cfg;
    cfg.nodes = 50;
    cfg.edgeProbability = 0.08;
    cfg.seed = 5;
    cases.push_back({"erdos_renyi", msc::gen::erdosRenyi(cfg)});
  }
  {
    msc::gen::WattsStrogatzConfig cfg;
    cfg.nodes = 48;
    cfg.neighbors = 2;
    cfg.seed = 7;
    cases.push_back({"watts_strogatz", msc::gen::wattsStrogatz(cfg)});
  }
  {
    msc::gen::BarabasiAlbertConfig cfg;
    cfg.nodes = 50;
    cfg.attachEdges = 2;
    cfg.seed = 11;
    cases.push_back({"barabasi_albert", msc::gen::barabasiAlbert(cfg)});
  }
  {
    msc::gen::GowallaConfig cfg;
    cfg.users = 60;
    cfg.anchors = 4;
    cases.push_back({"gowalla_like", msc::gen::gowallaLike(cfg).graph});
  }
  return cases;
}

// Deterministic pair sample: spread endpoints across the node range so
// some pairs are far (unsatisfied at the threshold) and some near.
std::vector<SocialPair> samplePairs(const Graph& g, int m,
                                    std::uint64_t seed) {
  msc::util::Rng rng(seed);
  const auto n = static_cast<std::uint64_t>(g.nodeCount());
  std::vector<SocialPair> pairs;
  while (static_cast<int>(pairs.size()) < m) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto w = static_cast<NodeId>(rng.below(n));
    if (u == w) continue;
    pairs.push_back({std::min(u, w), std::max(u, w)});
  }
  return pairs;
}

// A threshold that splits the sampled pairs: exactly the median finite
// pair distance, so sigma is neither 0 nor m trivially. Sitting on a pair
// distance is deliberate: every mode serves the same bits, so even the
// d <= dt comparison at the boundary must agree.
double medianThreshold(const msc::graph::DistanceOracle& oracle,
                       const std::vector<SocialPair>& pairs) {
  std::vector<double> finite;
  for (const auto& p : pairs) {
    const double d = oracle.distance(p.u, p.w);
    if (d != kInfDist) finite.push_back(d);
  }
  if (finite.empty()) return 1.0;
  std::sort(finite.begin(), finite.end());
  return finite[finite.size() / 2];
}

class OracleBackendEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(OracleBackendEquivalence, SigmaMuNuAgreeAcrossAllGenerators) {
  const int threads = GetParam();
  for (auto& gc : generatorSweep()) {
    SCOPED_TRACE(gc.name);
    const auto shared = std::make_shared<const Graph>(gc.graph);
    const int n = gc.graph.nodeCount();

    // Eager (dense mode), lazy unbounded, and lazy under a three-row
    // budget that evicts on almost every query.
    const auto eager = msc::graph::makeDistanceOracle(
        shared, DistanceMode::Dense, 8, threads);
    ASSERT_STREQ(eager->mode(), "dense");
    const PairCentricOracle lazy(shared, PairCentricOracle::Config{4, 1});
    const PairCentricOracle budgeted(
        shared,
        PairCentricOracle::Config{
            4, 1, 3 * msc::graph::oracleRowBytes(static_cast<std::size_t>(n))});
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

    // Same rows, so the same objective values and the same greedy picks.
    const auto pairs = samplePairs(gc.graph, 8, 13);
    const double dt = medianThreshold(*eager, pairs);
    const Instance denseT(gc.graph, pairs, dt,
                          InstanceOptions{.threads = threads,
                                          .distanceMode = DistanceMode::Dense});
    const Instance pcT(gc.graph, pairs, dt,
                       InstanceOptions{.threads = threads,
                                       .distanceMode =
                                           DistanceMode::PairCentric});
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

  for (const auto mode : {DistanceMode::Dense, DistanceMode::PairCentric}) {
    SCOPED_TRACE(msc::graph::distanceModeName(mode));
    Graph copy = g;
    const Instance inst(std::move(copy), pairs, 2.5,
                        InstanceOptions{.distanceMode = mode});
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

TEST(OracleLandmarks, ZeroAndOversizedLandmarkCountsStayExact) {
  const auto g = msc::test::randomGraph(30, 0.12, 21);
  const auto shared = std::make_shared<const Graph>(g);
  const auto eager = PairCentricOracle::allRows(shared, 1);

  for (const int landmarks : {0, g.nodeCount(), g.nodeCount() + 5}) {
    SCOPED_TRACE(landmarks);
    PairCentricOracle oracle(shared,
                             PairCentricOracle::Config{landmarks, 1});
    EXPECT_LE(static_cast<int>(oracle.landmarks().size()), g.nodeCount());
    for (NodeId s = 0; s < g.nodeCount(); s += 5) {
      for (NodeId t = 0; t < g.nodeCount(); t += 3) {
        EXPECT_EQ(oracle.distance(s, t), eager->distance(s, t))
            << "s=" << s << " t=" << t;
      }
    }
  }
}

TEST(OracleAltQuery, PointQueryBitIdenticalToRowEntry) {
  const auto g = msc::test::randomGraph(40, 0.1, 33);
  const auto shared = std::make_shared<const Graph>(g);
  PairCentricOracle oracle(shared, PairCentricOracle::Config{4, 1});

  // Pick query endpoints that are not landmarks, so neither row is cached
  // and distance() must take the ALT A* path.
  const auto lms = oracle.landmarks();
  const auto isLandmark = [&](NodeId v) {
    return std::find(lms.begin(), lms.end(), v) != lms.end();
  };
  int checked = 0;
  for (NodeId s = 0; s < g.nodeCount() && checked < 12; ++s) {
    if (isLandmark(s)) continue;
    for (NodeId t = s + 1; t < g.nodeCount() && checked < 12; t += 7) {
      if (isLandmark(t)) continue;
      PairCentricOracle fresh(shared, PairCentricOracle::Config{4, 1});
      const double point = fresh.distance(s, t);
      // distance() normalizes to the row of min(s, t); the ALT result
      // must be bit-identical to that row's entry.
      const double rowEntry = fresh.distancesFrom(s)[static_cast<std::size_t>(t)];
      EXPECT_EQ(point, rowEntry) << "s=" << s << " t=" << t;
      ++checked;
    }
  }
  EXPECT_GE(checked, 4);
}

// The point-query bits never depend on which rows happen to be cached: on
// the path 0-1-2-3 (lengths 0.1, 0.2, 0.3) the row of 0 sums to
// 0.6000000000000001 while the row of 3 sums to 0.6. With only row 3
// cached, distance(0, 3) must still be row 0's entry (computed by ALT).
TEST(OracleAltQuery, PointQueryIgnoresCachedRowOfLargerEndpoint) {
  Graph g(4);
  g.addEdge(0, 1, 0.1);
  g.addEdge(1, 2, 0.2);
  g.addEdge(2, 3, 0.3);
  const PairCentricOracle oracle(std::make_shared<const Graph>(g),
                                 PairCentricOracle::Config{0, 1});
  const std::vector<NodeId> onlyRow3 = {3};
  oracle.prefetchRows(onlyRow3, 1);
  ASSERT_EQ(oracle.distancesFrom(3)[0], 0.6);
  const double point = oracle.distance(0, 3);
  EXPECT_EQ(oracle.distance(3, 0), point);
  EXPECT_EQ(point, oracle.distancesFrom(0)[3]);
  EXPECT_EQ(point, 0.6000000000000001);
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
  const auto eager =
      msc::graph::makeDistanceOracle(shared, DistanceMode::Dense, 0, 1);
  const PairCentricOracle lazy(shared, PairCentricOracle::Config{2, 1});
  const auto& base = eager->materialize();
  ASSERT_EQ(base, msc::graph::allPairsDistances(g));

  const std::vector<std::pair<NodeId, NodeId>> shortcuts = {
      {0, 34}, {5, 20}, {11, 28}};
  const auto evolved = msc::test::distancesWithShortcuts(base, shortcuts);

  for (const msc::graph::DistanceOracle* oracle :
       {static_cast<const msc::graph::DistanceOracle*>(eager.get()),
        static_cast<const msc::graph::DistanceOracle*>(&lazy)}) {
    SCOPED_TRACE(oracle->mode());
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
