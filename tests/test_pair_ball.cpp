// Differential tests for the per-scan d_t-ball pair index
// (core/pair_ball.h): after prepareScan, σ gains with unit and with random
// pair weights must equal a reference full-pair loop bit for bit, for every
// candidate at every greedy round — across generators, distance modes,
// candidate sets and thread counts — and the μ per-candidate bitsets must
// equal the one-shortcut predicate evaluated pair by pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/bounds.h"
#include "core/candidates.h"
#include "core/dynamic.h"
#include "core/greedy.h"
#include "core/instance.h"
#include "core/pair_ball.h"
#include "core/robust.h"
#include "core/sigma.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "gen/grid.h"
#include "gen/random_geometric.h"
#include "graph/shortcut_distance.h"
#include "helpers.h"
#include "obs/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using msc::core::CandidateSet;
using msc::core::Instance;
using msc::core::InstanceOptions;
using msc::core::Shortcut;
using msc::core::ShortcutList;
using msc::core::SigmaEvaluator;
using msc::core::SocialPair;
using msc::graph::DistanceMode;
using msc::graph::Graph;
using msc::graph::NodeId;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct GenCase {
  std::string name;
  Graph graph;
};

std::vector<GenCase> generators() {
  std::vector<GenCase> cases;
  {
    msc::gen::RandomGeometricConfig cfg;
    cfg.nodes = 40;
    cfg.radius = 0.25;
    cfg.seed = 3;
    cases.push_back({"rg", msc::gen::randomGeometric(cfg).graph});
  }
  {
    // Sparse enough to split into components: infinite rows.
    msc::gen::ErdosRenyiConfig cfg;
    cfg.nodes = 36;
    cfg.edgeProbability = 0.06;
    cfg.seed = 5;
    cases.push_back({"er", msc::gen::erdosRenyi(cfg)});
  }
  {
    msc::gen::BarabasiAlbertConfig cfg;
    cfg.nodes = 40;
    cfg.attachEdges = 2;
    cfg.seed = 7;
    cases.push_back({"ba", msc::gen::barabasiAlbert(cfg)});
  }
  {
    msc::gen::GridConfig cfg;
    cfg.width = 6;
    cfg.height = 5;
    cases.push_back({"grid", msc::gen::grid(cfg).graph});
  }
  return cases;
}

std::vector<SocialPair> samplePairs(const Graph& g, int m,
                                    std::uint64_t seed) {
  msc::util::Rng rng(seed);
  const auto n = static_cast<std::uint64_t>(g.nodeCount());
  std::vector<SocialPair> pairs;
  while (static_cast<int>(pairs.size()) < m) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto w = static_cast<NodeId>(rng.below(n));
    if (u != w) pairs.push_back({u, w});
  }
  return pairs;
}

// A threshold at the lower quartile of the finite pair distances: most
// pairs start open, and shortcuts near them can close them.
double quartileThreshold(const Graph& g, const std::vector<SocialPair>& pairs) {
  const auto dist = msc::graph::allPairsDistances(g);
  std::vector<double> finite;
  for (const auto& p : pairs) {
    const double d = dist(static_cast<std::size_t>(p.u),
                          static_cast<std::size_t>(p.w));
    if (d != kInf) finite.push_back(d);
  }
  if (finite.empty()) return 1.0;
  std::sort(finite.begin(), finite.end());
  return finite[finite.size() / 4];
}

std::vector<double> sampleWeights(std::size_t m, std::uint64_t seed) {
  msc::util::Rng rng(seed);
  std::vector<double> w(m);
  for (double& x : w) x = 0.1 + rng.uniform();
  return w;
}

enum class CandKind { AllPairs, PairNodes, Incident };

const char* candKindName(CandKind k) {
  switch (k) {
    case CandKind::AllPairs: return "all_pairs";
    case CandKind::PairNodes: return "pair_nodes";
    case CandKind::Incident: return "incident";
  }
  return "?";
}

CandidateSet makeCandidates(CandKind kind, const Instance& inst) {
  const int n = inst.graph().nodeCount();
  switch (kind) {
    case CandKind::AllPairs:
      return CandidateSet::allPairs(n);
    case CandKind::PairNodes: {
      // The serve candidate universe in the pair-centric mode.
      const auto& nodes = inst.pairNodes();
      ShortcutList list;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        for (std::size_t j = i + 1; j < nodes.size(); ++j) {
          list.push_back(Shortcut::make(nodes[i], nodes[j]));
        }
      }
      return CandidateSet(std::move(list));
    }
    case CandKind::Incident:
      return CandidateSet::incidentTo(n, inst.pairs().front().u);
  }
  return CandidateSet(ShortcutList{});
}

// The full-pair loop the index replaces, over rows it evolves itself.
class ReferenceSigma {
 public:
  ReferenceSigma(const Instance& inst, std::vector<double> weights)
      : inst_(inst),
        weights_(std::move(weights)),
        rows_(inst.distanceOracle(), inst.pairNodes()) {}

  void add(const Shortcut& f) { rows_.applyZeroEdge(f.a, f.b); }

  // SigmaEvaluator's expression, over every pair still open.
  double gain(const Shortcut& f) const {
    int gain = 0;
    forEachOpen([&](std::size_t, const double* ru, const double* rw) {
      if (std::min(ru[f.a] + rw[f.b], ru[f.b] + rw[f.a]) <= dt()) ++gain;
    });
    return gain;
  }

  // The one-shortcut test over the open pairs, weights summed in ascending
  // pair order.
  double weightedGain(const Shortcut& f) const {
    double gain = 0.0;
    forEachOpen([&](std::size_t i, const double* ru, const double* rw) {
      const auto w = static_cast<std::size_t>(inst_.pairs()[i].w);
      if (std::min({ru[w], ru[f.a] + rw[f.b], ru[f.b] + rw[f.a]}) <= dt()) {
        gain += weights_[i];
      }
    });
    return gain;
  }

 private:
  double dt() const { return inst_.distanceThreshold(); }

  template <typename Fn>
  void forEachOpen(Fn fn) const {
    const auto& pairs = inst_.pairs();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const double* ru = rows_.rowIfPresent(pairs[i].u);
      const double* rw = rows_.rowIfPresent(pairs[i].w);
      if (ru[static_cast<std::size_t>(pairs[i].w)] <= dt()) continue;
      fn(i, ru, rw);
    }
  }

  const Instance& inst_;
  std::vector<double> weights_;
  msc::graph::ShortcutRowStore rows_;
};

// Forwards everything but the scan hint, so gains take the full loop.
class NoHint final : public msc::core::IncrementalEvaluator {
 public:
  explicit NoHint(msc::core::IncrementalEvaluator& inner) : inner_(inner) {}
  void reset() override { inner_.reset(); }
  double currentValue() const override { return inner_.currentValue(); }
  double gainIfAdd(const Shortcut& f) const override {
    return inner_.gainIfAdd(f);
  }
  void add(const Shortcut& f) override { inner_.add(f); }

 private:
  msc::core::IncrementalEvaluator& inner_;
};

// Every candidate at every round: indexed gains (probed from `threads`
// workers) against the reference; then the reference's best candidate is
// committed and a sample of candidates is re-probed with the now stale
// index, which must not be used. Finally every node pair is probed after
// a fresh prepareScan, candidates or not.
void expectIndexedGainsMatch(const Instance& inst, const CandidateSet& cands,
                             int threads, int rounds) {
  const auto weights = sampleWeights(inst.pairs().size(), 17);
  SigmaEvaluator sigma(inst);
  SigmaEvaluator weighted(inst, weights);
  ReferenceSigma ref(inst, weights);
  std::vector<double> got(cands.size());
  std::vector<double> gotWeighted(cands.size());
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    sigma.prepareScan(cands);
    weighted.prepareScan(cands);
    msc::util::parallelForThreads(
        threads, 0, cands.size(), 16, [&](std::size_t begin, std::size_t end) {
          for (std::size_t c = begin; c < end; ++c) {
            got[c] = sigma.gainIfAdd(cands[c]);
            gotWeighted[c] = weighted.gainIfAdd(cands[c]);
          }
        });
    std::size_t best = 0;
    double bestGain = -1.0;
    for (std::size_t c = 0; c < cands.size(); ++c) {
      const double want = ref.gain(cands[c]);
      ASSERT_EQ(got[c], want) << cands[c].a << "-" << cands[c].b;
      ASSERT_EQ(gotWeighted[c], ref.weightedGain(cands[c]))
          << cands[c].a << "-" << cands[c].b;
      if (want > bestGain) {
        bestGain = want;
        best = c;
      }
    }
    sigma.add(cands[best]);
    weighted.add(cands[best]);
    ref.add(cands[best]);
    for (std::size_t c = 0; c < cands.size(); c += 7) {
      ASSERT_EQ(sigma.gainIfAdd(cands[c]), ref.gain(cands[c])) << "stale";
      ASSERT_EQ(weighted.gainIfAdd(cands[c]), ref.weightedGain(cands[c]))
          << "stale";
    }
  }
  sigma.prepareScan(cands);
  const int n = inst.graph().nodeCount();
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      const Shortcut f{a, b};
      ASSERT_EQ(sigma.gainIfAdd(f), ref.gain(f)) << a << "-" << b;
    }
  }
}

// The μ bitsets against the one-shortcut predicate over base rows.
void expectMuSetsMatch(const Instance& inst, const CandidateSet& cands) {
  const auto& pairs = inst.pairs();
  const auto& oracle = inst.distanceOracle();
  const double dt = inst.distanceThreshold();
  const auto sets = msc::core::oneShortcutSets(inst, cands);
  ASSERT_EQ(sets.size(), cands.size());
  for (std::size_t c = 0; c < cands.size(); ++c) {
    const Shortcut& f = cands[c];
    ASSERT_EQ(sets[c], msc::core::oneShortcutSet(inst, f));
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto ru = oracle.distancesFrom(pairs[i].u);
      const auto rw = oracle.distancesFrom(pairs[i].w);
      const auto w = static_cast<std::size_t>(pairs[i].w);
      const bool want =
          std::min({ru[w], ru[f.a] + rw[f.b], ru[f.b] + rw[f.a]}) <= dt;
      ASSERT_EQ(sets[c].test(i), want) << f.a << "-" << f.b << " pair " << i;
    }
  }
}

using GridParam = std::tuple<DistanceMode, CandKind, int>;

class PairBallGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(PairBallGrid, IndexedGainsAndMuSetsMatchFullPairLoops) {
  const auto [mode, kind, threads] = GetParam();
  for (const GenCase& gc : generators()) {
    SCOPED_TRACE(gc.name);
    const auto pairs = samplePairs(gc.graph, 12, 29);
    const double dt = quartileThreshold(gc.graph, pairs);
    const Instance inst(
        gc.graph, pairs, dt,
        InstanceOptions{.threads = threads, .distanceMode = mode});
    const CandidateSet cands = makeCandidates(kind, inst);
    expectIndexedGainsMatch(inst, cands, threads, 4);
    expectMuSetsMatch(inst, cands);

    // Whole passes: same picks, values and probe counts as with no index.
    const msc::core::SolveOptions options{.k = 3, .threads = threads};
    SigmaEvaluator indexed(inst);
    SigmaEvaluator plain(inst);
    NoHint hidden(plain);
    const auto a = msc::core::greedyMaximize(indexed, cands, options);
    const auto b = msc::core::greedyMaximize(hidden, cands, options);
    EXPECT_EQ(a.placement, b.placement);
    EXPECT_EQ(a.trajectory, b.trajectory);
    EXPECT_EQ(a.gainEvaluations, b.gainEvaluations);
    const auto la = msc::core::lazyGreedyMaximize(indexed, cands, options);
    const auto lb = msc::core::lazyGreedyMaximize(hidden, cands, options);
    EXPECT_EQ(la.placement, lb.placement);
    EXPECT_EQ(la.value, lb.value);
    EXPECT_EQ(la.gainEvaluations, lb.gainEvaluations);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PairBallGrid,
    ::testing::Combine(::testing::Values(DistanceMode::Dense,
                                         DistanceMode::PairCentric),
                       ::testing::Values(CandKind::AllPairs,
                                         CandKind::PairNodes,
                                         CandKind::Incident),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return std::string(msc::graph::distanceModeName(std::get<0>(info.param))) +
             "_" + candKindName(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param));
    });

TEST(PairBall, ZeroAndInfiniteThresholds) {
  for (const GenCase& gc : generators()) {
    SCOPED_TRACE(gc.name);
    const auto pairs = samplePairs(gc.graph, 10, 41);
    for (const double dt : {0.0, kInf}) {
      SCOPED_TRACE(dt);
      const Instance inst(gc.graph, pairs, dt);
      const auto cands = CandidateSet::allPairs(inst.graph().nodeCount());
      expectIndexedGainsMatch(inst, cands, 1, 2);
      expectMuSetsMatch(inst, cands);
    }
  }
}

TEST(PairBall, ZeroLengthEdgesAtZeroThreshold) {
  // 0 =0= 1 -1- 2 =0= 3 -1- 4 =0= 5: d_t = 0 balls span the 0-length edges.
  Graph g(6);
  for (int v = 0; v < 5; ++v) g.addEdge(v, v + 1, v % 2 == 0 ? 0.0 : 1.0);
  const Instance inst(std::move(g), {{0, 5}, {1, 4}, {2, 5}}, 0.0);
  const auto cands = CandidateSet::allPairs(6);
  expectIndexedGainsMatch(inst, cands, 1, 3);
  expectMuSetsMatch(inst, cands);
  SigmaEvaluator sigma(inst);
  sigma.prepareScan(cands);
  EXPECT_EQ(sigma.gainIfAdd(Shortcut::make(1, 4)), 2.0);  // (0,5) and (1,4)
}

TEST(PairBall, DisconnectedComponentsKeepInfiniteRowsExact) {
  // Two lines 0-1-2-3 and 4-5-6-7; pairs straddle the components.
  Graph g(8);
  for (int v : {0, 1, 2}) g.addEdge(v, v + 1, 1.0);
  for (int v : {4, 5, 6}) g.addEdge(v, v + 1, 1.0);
  for (const auto mode : {DistanceMode::Dense, DistanceMode::PairCentric}) {
    SCOPED_TRACE(msc::graph::distanceModeName(mode));
    const Instance inst(g, {{0, 7}, {1, 6}, {3, 4}, {1, 2}}, 2.0,
                        InstanceOptions{.distanceMode = mode});
    const auto cands = CandidateSet::allPairs(8);
    expectIndexedGainsMatch(inst, cands, 1, 3);
    expectMuSetsMatch(inst, cands);
  }
}

TEST(PairBall, NonCandidateProbesFallBackOrStayExact) {
  const auto pairs = std::vector<SocialPair>{{0, 9}, {2, 7}};
  const Instance inst(msc::test::lineGraph(10), pairs, 2.0);
  // Index over pair nodes only: probes touching other nodes fall back.
  const CandidateSet pairNodes(
      ShortcutList{Shortcut::make(0, 9), Shortcut::make(2, 7)});
  EXPECT_EQ(pairNodes.endpoints(), (std::vector<NodeId>{0, 2, 7, 9}));
  SigmaEvaluator sigma(inst);
  ReferenceSigma ref(inst, {1.0, 1.0});
  sigma.prepareScan(pairNodes);
  for (NodeId a = 0; a < 10; ++a) {
    for (NodeId b = a + 1; b < 10; ++b) {
      EXPECT_EQ(sigma.gainIfAdd({a, b}), ref.gain({a, b})) << a << "-" << b;
    }
  }
}

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

TEST(PairBall, FarCandidateMakesNoPairChecksAndStaleIndexIsDropped) {
  // Pairs (0, 3) and (1, 4) on a unit line of 10 nodes, d_t = 1: nodes 6..9
  // are farther than d_t from every pair endpoint.
  const Instance inst(msc::test::lineGraph(10), {{0, 3}, {1, 4}}, 1.0);
  const auto cands = CandidateSet::allPairs(10);
  SigmaEvaluator sigma(inst);
  sigma.prepareScan(cands);
  const MetricsScope metrics;
  auto& relaxations = msc::obs::counter("sigma.relaxations");

  EXPECT_EQ(sigma.gainIfAdd(Shortcut::make(7, 9)), 0.0);
  EXPECT_EQ(relaxations.value(), 0u);
  EXPECT_EQ(msc::obs::counter("sigma.gain_calls").value(), 1u);

  // (0, 4) reaches both pairs from both sides: two checks, both satisfied.
  EXPECT_EQ(sigma.gainIfAdd(Shortcut::make(0, 4)), 2.0);
  EXPECT_EQ(relaxations.value(), 2u);

  // add() drops the index (and counts its own 2 re-checks); the next probe
  // walks both open pairs again.
  sigma.add(Shortcut::make(7, 9));
  EXPECT_EQ(relaxations.value(), 4u);
  EXPECT_EQ(sigma.gainIfAdd(Shortcut::make(7, 9)), 0.0);
  EXPECT_EQ(relaxations.value(), 6u);
}

TEST(PairBall, CompositesForwardTheScanHint) {
  const Instance inst(msc::test::lineGraph(10), {{0, 3}, {1, 4}}, 1.0);
  const auto cands = CandidateSet::allPairs(10);
  SigmaEvaluator first(inst);
  SigmaEvaluator second(inst);
  const std::vector<msc::core::IncrementalEvaluator*> kids = {&first, &second};
  const std::vector<const msc::core::SetFunction*> fns = {&first, &second};
  msc::core::SumEvaluator sum(kids, fns, "sum");
  msc::core::MinEvaluator min(kids, fns);
  msc::core::TruncatedSumEvaluator capped(kids, fns, 1.0);
  for (msc::core::IncrementalEvaluator* eval :
       std::vector<msc::core::IncrementalEvaluator*>{&sum, &min, &capped}) {
    eval->reset();
    eval->prepareScan(cands);
    const MetricsScope metrics;
    EXPECT_EQ(eval->gainIfAdd(Shortcut::make(7, 9)), 0.0);
    EXPECT_EQ(msc::obs::counter("sigma.relaxations").value(), 0u);
  }
}

TEST(PairBall, EndpointsOfCandidateSets) {
  EXPECT_TRUE(CandidateSet(ShortcutList{}).endpoints().empty());
  EXPECT_EQ(CandidateSet::allPairs(4).endpoints(),
            (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(CandidateSet::incidentTo(5, 2).endpoints(),
            (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(CandidateSet(ShortcutList{Shortcut::make(8, 3),
                                      Shortcut::make(5, 3)})
                .endpoints(),
            (std::vector<NodeId>{3, 5, 8}));
}

TEST(PairBall, BuildRejectsOutOfRangeNodesAndStaysInvalid) {
  const Instance inst(msc::test::lineGraph(4), {{0, 3}}, 1.0);
  const auto& oracle = inst.distanceOracle();
  const std::vector<msc::core::PairRows> rows = {
      {oracle.distancesFrom(0).data(), oracle.distancesFrom(3).data()}};
  msc::core::PairBallIndex index;
  const std::vector<NodeId> bad = {0, 4};
  EXPECT_THROW(index.build(inst.pairs(), rows, 1.0, bad, 4),
               std::out_of_range);
  EXPECT_FALSE(index.valid());
  EXPECT_FALSE(index.forEachShared(0, 0, [](std::size_t) {}));
  const std::vector<NodeId> good = {0, 1, 3};
  index.build(inst.pairs(), rows, 1.0, good, 4);
  std::vector<std::size_t> hits;
  EXPECT_TRUE(index.forEachShared(1, 3, [&](std::size_t i) {
    hits.push_back(i);
  }));
  EXPECT_EQ(hits, (std::vector<std::size_t>{0}));
  EXPECT_FALSE(index.forEachShared(1, 2, [](std::size_t) {}));  // 2 unindexed
  index.invalidate();
  EXPECT_FALSE(index.forEachShared(1, 3, [](std::size_t) {}));
}

}  // namespace
