// Differential tests for the bulk gain scans
// (IncrementalEvaluator::scanGains). Every override — σ with unit, random
// and zero-holding pair weights, μ, ν, and the Sum/Min/TruncatedSum
// composites — and the default gainIfAdd loop (the Monte-Carlo evaluator)
// must fill, for every candidate, exactly the bits gainIfAdd returns:
// across generators, full and d_t-bounded rows, thresholds, thread counts
// and committed prefixes. σ and μ are also checked against independent
// full-pair loops, and whole greedy, budgeted and sandwich passes against
// a loop-only reference evaluator; ν's argmax against the full scan's
// fold at every greedy round. The PairBall* cases pin the
// d_t-ball edge cases: zero and infinite thresholds, zero-length edges,
// infinite rows across components, non-candidate probes and composites.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/budgeted.h"
#include "core/bounds.h"
#include "core/candidates.h"
#include "core/dynamic.h"
#include "core/greedy.h"
#include "core/instance.h"
#include "core/robust.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "gen/grid.h"
#include "gen/random_geometric.h"
#include "graph/shortcut_distance.h"
#include "helpers.h"
#include "mc/reliability.h"
#include "mc/world_sampler.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace {

using msc::core::CandidateSet;
using msc::core::IncrementalEvaluator;
using msc::core::Instance;
using msc::core::InstanceOptions;
using msc::core::MuEvaluator;
using msc::core::NuEvaluator;
using msc::core::SetFunction;
using msc::core::Shortcut;
using msc::core::ShortcutList;
using msc::core::SigmaEvaluator;
using msc::core::SocialPair;
using msc::core::SolveOptions;
using msc::graph::DistanceMode;
using msc::graph::Graph;
using msc::graph::NodeId;

constexpr double kInf = std::numeric_limits<double>::infinity();

::testing::AssertionResult sameBits(double got, double want) {
  if (std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::hexfloat << got << " != " << want;
}

// Forwards everything but scanGains, so scans take the default gainIfAdd
// loop of the wrapped evaluator.
class LoopOnly final : public IncrementalEvaluator {
 public:
  explicit LoopOnly(IncrementalEvaluator& inner) : inner_(inner) {}
  void reset() override { inner_.reset(); }
  double currentValue() const override { return inner_.currentValue(); }
  double gainIfAdd(const Shortcut& f) const override {
    return inner_.gainIfAdd(f);
  }
  void add(const Shortcut& f) override { inner_.add(f); }

 private:
  IncrementalEvaluator& inner_;
};

// Counts the gainIfAdd calls that reach the wrapped evaluator (from any
// thread), the way a probe-timing decorator sees them.
class CountingProbes final : public IncrementalEvaluator {
 public:
  explicit CountingProbes(IncrementalEvaluator& inner) : inner_(inner) {}
  void reset() override { inner_.reset(); }
  double currentValue() const override { return inner_.currentValue(); }
  double gainIfAdd(const Shortcut& f) const override {
    probes_.fetch_add(1, std::memory_order_relaxed);
    return inner_.gainIfAdd(f);
  }
  void add(const Shortcut& f) override { inner_.add(f); }
  std::size_t probes() const { return probes_.load(); }

 private:
  IncrementalEvaluator& inner_;
  mutable std::atomic<std::size_t> probes_{0};
};

// scanGains against gainIfAdd, candidate by candidate, bit for bit.
void expectScanMatchesProbes(IncrementalEvaluator& eval,
                             const CandidateSet& cands, int threads) {
  std::vector<double> got(cands.size(), -1.0);
  eval.scanGains(cands, got, threads, {});
  for (std::size_t c = 0; c < cands.size(); ++c) {
    ASSERT_TRUE(sameBits(got[c], eval.gainIfAdd(cands[c])))
        << cands[c].a << "-" << cands[c].b;
  }
}

std::vector<double> sampleWeights(std::size_t m, std::uint64_t seed) {
  msc::util::Rng rng(seed);
  std::vector<double> w(m);
  for (double& x : w) x = 0.1 + rng.uniform();
  return w;
}

// Random weights with every third one exactly zero.
std::vector<double> zeroHoldingWeights(std::size_t m) {
  auto w = sampleWeights(m, 23);
  for (std::size_t i = 0; i < m; i += 3) w[i] = 0.0;
  return w;
}

// ------------------------------------------------------- the full grid ---

// Full rows (Dense), or d_t-bounded rows under a row budget of a few
// rows, so the row cache evicts (and re-materializes) while the
// evaluators read.
enum class RowKind { Dense, BudgetedPairCentric };

Instance rowInstance(RowKind kind, const Graph& g,
                     const std::vector<SocialPair>& pairs, double dt,
                     int threads) {
  if (kind == RowKind::Dense) {
    return msc::test::fullRowInstance(g, pairs, dt, threads);
  }
  return Instance(
      g, pairs, dt,
      InstanceOptions{.threads = threads,
                      .oracleRowBudgetBytes =
                          4 * static_cast<std::size_t>(g.nodeCount()) *
                          sizeof(double)});
}

// generatorSweep's pairs with every other pair reversed (u > w), so rows
// are read from the higher endpoint too.
std::vector<SocialPair> gridPairs(const Graph& g) {
  auto pairs = msc::test::samplePairs(g, 10, 31);
  for (std::size_t i = 1; i < pairs.size(); i += 2) {
    std::swap(pairs[i].u, pairs[i].w);
  }
  return pairs;
}

// Every evaluator under test; each composite owns its children, so a
// commit goes to every member of all() exactly once.
struct EvaluatorSet {
  EvaluatorSet(const Instance& inst, const CandidateSet& cands,
               const msc::mc::WorldSet& worlds)
      : sigma(inst),
        sigmaRandom(inst, sampleWeights(inst.pairs().size(), 17)),
        sigmaZeros(inst, zeroHoldingWeights(inst.pairs().size())),
        mu(inst, cands),
        nu(inst, sampleWeights(inst.pairs().size(), 19)),
        mc(inst, worlds),
        sumA(inst),
        sumB(inst, sampleWeights(inst.pairs().size(), 17)),
        minA(inst),
        minB(inst, zeroHoldingWeights(inst.pairs().size())),
        capA(inst, sampleWeights(inst.pairs().size(), 17)),
        capB(inst),
        sum({&sumA, &sumB}, {&sumA, &sumB}, "sum"),
        min({&minA, &minB}, {&minA, &minB}),
        capped({&capA, &capB}, {&capA, &capB}, 2.0) {}

  std::vector<std::pair<const char*, IncrementalEvaluator*>> all() {
    return {{"sigma", &sigma},
            {"sigma_random", &sigmaRandom},
            {"sigma_zeros", &sigmaZeros},
            {"mu", &mu},
            {"nu", &nu},
            {"mc", &mc},
            {"sum", &sum},
            {"min", &min},
            {"truncated_sum", &capped}};
  }

  SigmaEvaluator sigma;
  SigmaEvaluator sigmaRandom;
  SigmaEvaluator sigmaZeros;
  MuEvaluator mu;
  NuEvaluator nu;
  msc::mc::ReliabilityEvaluator mc;
  SigmaEvaluator sumA, sumB, minA, minB, capA;
  NuEvaluator capB;
  msc::core::SumEvaluator sum;
  msc::core::MinEvaluator min;
  msc::core::TruncatedSumEvaluator capped;
};

using GridParam = std::tuple<RowKind, int>;

class ScanGainsGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(ScanGainsGrid, EveryEvaluatorMatchesGainIfAddAfterEachCommit) {
  const auto [kind, threads] = GetParam();
  for (const auto& gc : msc::test::generatorSweep()) {
    SCOPED_TRACE(gc.name);
    const auto pairs = gridPairs(gc.graph);
    const int n = gc.graph.nodeCount();
    const Instance probe = rowInstance(kind, gc.graph, pairs, 0.0, threads);
    const double median =
        msc::test::medianThreshold(probe.distanceOracle(), pairs);
    const msc::mc::WorldSet worlds(gc.graph, {.worlds = 64, .seed = 3});
    const auto cands = CandidateSet::allPairs(n);
    for (const double dt : {0.0, median, kInf}) {
      SCOPED_TRACE("dt " + std::to_string(dt));
      const Instance inst = rowInstance(kind, gc.graph, pairs, dt, threads);
      EvaluatorSet evals(inst, cands, worlds);
      for (const auto& [name, eval] : evals.all()) eval->reset();
      msc::util::Rng rng(5);
      for (int commits = 0; commits <= 3; ++commits) {
        SCOPED_TRACE("commits " + std::to_string(commits));
        for (const auto& [name, eval] : evals.all()) {
          SCOPED_TRACE(name);
          expectScanMatchesProbes(*eval, cands, threads);
        }
        // Commit σ's best candidate, or a random one when nothing helps.
        std::vector<double> gains(cands.size());
        evals.sigma.scanGains(cands, gains, threads, {});
        const auto best = std::max_element(gains.begin(), gains.end());
        const Shortcut f =
            *best > 0.0 ? cands[static_cast<std::size_t>(best - gains.begin())]
                        : cands[rng.below(cands.size())];
        for (const auto& [name, eval] : evals.all()) eval->add(f);
      }
    }
  }
}

TEST_P(ScanGainsGrid, SolverPassesMatchLoopOnlyReference) {
  const auto [kind, threads] = GetParam();
  const SolveOptions options{.k = 3, .threads = threads};
  for (const auto& gc : msc::test::generatorSweep()) {
    SCOPED_TRACE(gc.name);
    const auto pairs = gridPairs(gc.graph);
    const int n = gc.graph.nodeCount();
    const Instance probe = rowInstance(kind, gc.graph, pairs, 0.0, threads);
    const double dt = msc::test::medianThreshold(probe.distanceOracle(), pairs);
    const Instance inst = rowInstance(kind, gc.graph, pairs, dt, threads);
    const auto cands = CandidateSet::allPairs(n);
    const auto weights = sampleWeights(pairs.size(), 29);

    SigmaEvaluator bulk(inst, weights);
    SigmaEvaluator plain(inst, weights);
    LoopOnly loop(plain);
    const auto g1 = msc::core::greedyMaximize(bulk, cands, options);
    const auto g2 = msc::core::greedyMaximize(loop, cands, options);
    EXPECT_EQ(g1.placement, g2.placement);
    EXPECT_EQ(g1.trajectory, g2.trajectory);
    EXPECT_EQ(g1.gainEvaluations, g2.gainEvaluations);

    MuEvaluator muBulk(inst, cands);
    MuEvaluator muPlain(inst, cands);
    LoopOnly muLoop(muPlain);
    const auto m1 = msc::core::greedyMaximize(muBulk, cands, options);
    const auto m2 = msc::core::greedyMaximize(muLoop, cands, options);
    EXPECT_EQ(m1.placement, m2.placement);
    EXPECT_TRUE(sameBits(m1.value, m2.value));
    EXPECT_EQ(m1.trajectory, m2.trajectory);
    EXPECT_EQ(m1.gainEvaluations, m2.gainEvaluations);

    const auto cost = msc::core::unitCost();
    const auto b1 = msc::core::budgetedGreedy(bulk, cands, cost, 3.0, options);
    const auto b2 = msc::core::budgetedGreedy(loop, cands, cost, 3.0, options);
    EXPECT_EQ(b1.placement, b2.placement);
    EXPECT_TRUE(sameBits(b1.value, b2.value));
    EXPECT_EQ(b1.gainEvaluations, b2.gainEvaluations);

    NuEvaluator nuBulk(inst, weights);
    NuEvaluator nuPlain(inst, weights);
    LoopOnly nuLoop(nuPlain);
    MuEvaluator muW(inst, cands, weights);
    MuEvaluator muWPlain(inst, cands, weights);
    LoopOnly muWLoop(muWPlain);
    const auto s1 = msc::core::sandwichApproximation(bulk, muW, nuBulk, bulk,
                                                     nuBulk, cands, options);
    const auto s2 = msc::core::sandwichApproximation(
        loop, muWLoop, nuLoop, plain, nuPlain, cands, options);
    EXPECT_EQ(s1.placement, s2.placement);
    EXPECT_EQ(s1.placementMu, s2.placementMu);
    EXPECT_EQ(s1.placementSigma, s2.placementSigma);
    EXPECT_EQ(s1.placementNu, s2.placementNu);
    EXPECT_TRUE(sameBits(s1.sigma, s2.sigma));
    EXPECT_TRUE(sameBits(s1.nuOfFnu, s2.nuOfFnu));
    EXPECT_EQ(s1.winner, s2.winner);
    EXPECT_EQ(s1.gainEvaluations, s2.gainEvaluations);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, ScanGainsGrid,
    ::testing::Combine(::testing::Values(RowKind::Dense,
                                         RowKind::BudgetedPairCentric),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return std::string(std::get<0>(info.param) == RowKind::Dense
                             ? "dense"
                             : "budgeted_pair_centric") +
             "_t" + std::to_string(std::get<1>(info.param));
    });

// ----------------------------------------------- the d_t-ball edge cases ---

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

// Unordered pairs: u may exceed w.
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

// The full-pair σ loop, over rows it evolves itself.
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

// μ as max coverage over oneShortcutSet (the full pair loop), unit weights.
double referenceMuGain(const Instance& inst, const msc::util::Bitset& covered,
                       const Shortcut& f) {
  return static_cast<double>(
      covered.gainIfUnion(msc::core::oneShortcutSet(inst, f)));
}

msc::util::Bitset baseSatisfiedBits(const Instance& inst) {
  msc::util::Bitset bits(inst.pairs().size());
  for (std::size_t i = 0; i < inst.pairs().size(); ++i) {
    if (inst.baseSatisfied(inst.pairs()[i])) bits.set(i);
  }
  return bits;
}

// Every candidate at every round: scanned σ gains (unit and random
// weights) and μ gains against the full-pair references; then the
// reference's best candidate is committed everywhere. Finally every node
// pair, candidate or not, is probed one by one.
void expectScanGainsMatch(const Instance& inst, const CandidateSet& cands,
                          int threads, int rounds) {
  const auto weights = sampleWeights(inst.pairs().size(), 17);
  SigmaEvaluator sigma(inst);
  SigmaEvaluator weighted(inst, weights);
  ReferenceSigma ref(inst, weights);
  MuEvaluator mu(inst, cands);
  msc::util::Bitset muCovered = baseSatisfiedBits(inst);
  std::vector<double> got(cands.size());
  std::vector<double> gotWeighted(cands.size());
  std::vector<double> gotMu(cands.size());
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    sigma.scanGains(cands, got, threads, {});
    weighted.scanGains(cands, gotWeighted, threads, {});
    mu.scanGains(cands, gotMu, threads, {});
    std::size_t best = 0;
    double bestGain = -1.0;
    for (std::size_t c = 0; c < cands.size(); ++c) {
      const double want = ref.gain(cands[c]);
      ASSERT_TRUE(sameBits(got[c], want)) << cands[c].a << "-" << cands[c].b;
      ASSERT_TRUE(sameBits(gotWeighted[c], ref.weightedGain(cands[c])))
          << cands[c].a << "-" << cands[c].b;
      ASSERT_TRUE(
          sameBits(gotMu[c], referenceMuGain(inst, muCovered, cands[c])))
          << cands[c].a << "-" << cands[c].b;
      if (want > bestGain) {
        bestGain = want;
        best = c;
      }
    }
    sigma.add(cands[best]);
    weighted.add(cands[best]);
    ref.add(cands[best]);
    mu.add(cands[best]);
    muCovered |= msc::core::oneShortcutSet(inst, cands[best]);
  }
  const int n = inst.graph().nodeCount();
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      const Shortcut f{a, b};
      ASSERT_TRUE(sameBits(sigma.gainIfAdd(f), ref.gain(f))) << a << "-" << b;
      ASSERT_TRUE(
          sameBits(mu.gainIfAdd(f), referenceMuGain(inst, muCovered, f)))
          << a << "-" << b;
    }
  }
}

// The μ sets against the one-shortcut predicate over base rows.
void expectMuSetsMatch(const Instance& inst, const CandidateSet& cands) {
  const auto& pairs = inst.pairs();
  const auto& oracle = inst.distanceOracle();
  const double dt = inst.distanceThreshold();
  const auto base = baseSatisfiedBits(inst);
  const MuEvaluator mu(inst, cands);
  for (std::size_t c = 0; c < cands.size(); ++c) {
    const Shortcut& f = cands[c];
    const auto set = mu.satisfiedBy(f);
    auto want = msc::core::oneShortcutSet(inst, f);
    want |= base;
    ASSERT_EQ(set, want) << f.a << "-" << f.b;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto ru = oracle.distancesFrom(pairs[i].u);
      const auto rw = oracle.distancesFrom(pairs[i].w);
      const auto w = static_cast<std::size_t>(pairs[i].w);
      const bool pass =
          std::min({ru[w], ru[f.a] + rw[f.b], ru[f.b] + rw[f.a]}) <= dt;
      ASSERT_EQ(set.test(i), pass || base.test(i))
          << f.a << "-" << f.b << " pair " << i;
    }
  }
}

// The first axis keeps the names of the retired distance modes: Dense is
// full rows, PairCentric d_t-bounded rows.
using PairBallParam = std::tuple<DistanceMode, CandKind, int>;

Instance modeInstance(DistanceMode mode, const Graph& g,
                      const std::vector<SocialPair>& pairs, double dt,
                      int threads = 1) {
  return mode == DistanceMode::Dense
             ? msc::test::fullRowInstance(g, pairs, dt, threads)
             : Instance(g, pairs, dt, threads);
}

class PairBallGrid : public ::testing::TestWithParam<PairBallParam> {};

TEST_P(PairBallGrid, IndexedGainsAndMuSetsMatchFullPairLoops) {
  const auto [mode, kind, threads] = GetParam();
  for (const GenCase& gc : generators()) {
    SCOPED_TRACE(gc.name);
    const auto pairs = samplePairs(gc.graph, 12, 29);
    const double dt = quartileThreshold(gc.graph, pairs);
    const Instance inst = modeInstance(mode, gc.graph, pairs, dt, threads);
    const CandidateSet cands = makeCandidates(kind, inst);
    expectScanGainsMatch(inst, cands, threads, 4);
    expectMuSetsMatch(inst, cands);

    // Whole passes: same picks, values and probe counts as the loop.
    const SolveOptions options{.k = 3, .threads = threads};
    SigmaEvaluator bulk(inst);
    SigmaEvaluator plain(inst);
    LoopOnly loop(plain);
    const auto a = msc::core::greedyMaximize(bulk, cands, options);
    const auto b = msc::core::greedyMaximize(loop, cands, options);
    EXPECT_EQ(a.placement, b.placement);
    EXPECT_EQ(a.trajectory, b.trajectory);
    EXPECT_EQ(a.gainEvaluations, b.gainEvaluations);
    MuEvaluator mu(inst, cands);
    MuEvaluator muPlain(inst, cands);
    LoopOnly muLoop(muPlain);
    NuEvaluator nu(inst);
    NuEvaluator nuPlain(inst);
    LoopOnly nuLoop(nuPlain);
    const auto sa =
        msc::core::sandwichApproximation(bulk, mu, nu, bulk, nu, cands, options);
    const auto sb = msc::core::sandwichApproximation(
        loop, muLoop, nuLoop, plain, nuPlain, cands, options);
    EXPECT_EQ(sa.placementMu, sb.placementMu);
    EXPECT_EQ(sa.placementSigma, sb.placementSigma);
    EXPECT_EQ(sa.placementNu, sb.placementNu);
    EXPECT_TRUE(sameBits(sa.sigma, sb.sigma));
    EXPECT_TRUE(sameBits(sa.nuOfFnu, sb.nuOfFnu));
    EXPECT_EQ(sa.gainEvaluations, sb.gainEvaluations);
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
    [](const ::testing::TestParamInfo<PairBallParam>& info) {
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
      expectScanGainsMatch(inst, cands, 1, 2);
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
  expectScanGainsMatch(inst, cands, 1, 3);
  expectMuSetsMatch(inst, cands);
  SigmaEvaluator sigma(inst);
  std::vector<double> gains(cands.size());
  sigma.scanGains(cands, gains, 1, {});
  const auto at14 =
      static_cast<std::size_t>(cands.indexOf(Shortcut::make(1, 4)));
  EXPECT_EQ(gains[at14], 2.0);  // (0,5) and (1,4)
}

TEST(PairBall, DisconnectedComponentsKeepInfiniteRowsExact) {
  // Two lines 0-1-2-3 and 4-5-6-7; pairs straddle the components.
  Graph g(8);
  for (int v : {0, 1, 2}) g.addEdge(v, v + 1, 1.0);
  for (int v : {4, 5, 6}) g.addEdge(v, v + 1, 1.0);
  for (const auto mode : {DistanceMode::Dense, DistanceMode::PairCentric}) {
    SCOPED_TRACE(msc::graph::distanceModeName(mode));
    const Instance inst =
        modeInstance(mode, g, {{0, 7}, {1, 6}, {3, 4}, {1, 2}}, 2.0);
    const auto cands = CandidateSet::allPairs(8);
    expectScanGainsMatch(inst, cands, 1, 3);
    expectMuSetsMatch(inst, cands);
  }
}

TEST(PairBall, NonCandidateProbesFallBackOrStayExact) {
  const auto pairs = std::vector<SocialPair>{{0, 9}, {2, 7}};
  const Instance inst(msc::test::lineGraph(10), pairs, 2.0);
  // Scans over pair nodes only; probes touching other nodes stay exact.
  const CandidateSet pairNodes(
      ShortcutList{Shortcut::make(0, 9), Shortcut::make(2, 7)});
  EXPECT_EQ(pairNodes.endpoints(), (std::vector<NodeId>{0, 2, 7, 9}));
  SigmaEvaluator sigma(inst);
  MuEvaluator mu(inst, pairNodes);
  ReferenceSigma ref(inst, {1.0, 1.0});
  const auto base = baseSatisfiedBits(inst);
  expectScanMatchesProbes(sigma, pairNodes, 1);
  expectScanMatchesProbes(mu, pairNodes, 1);
  // A set μ was not built over takes the probe loop.
  const auto all = CandidateSet::allPairs(10);
  expectScanMatchesProbes(mu, all, 1);
  for (NodeId a = 0; a < 10; ++a) {
    for (NodeId b = a + 1; b < 10; ++b) {
      EXPECT_EQ(sigma.gainIfAdd({a, b}), ref.gain({a, b})) << a << "-" << b;
      EXPECT_EQ(mu.gainIfAdd({a, b}), referenceMuGain(inst, base, {a, b}))
          << a << "-" << b;
    }
  }
}

struct MetricsScope {
  MetricsScope() { msc::obs::resetAll(); }
  ~MetricsScope() { msc::obs::resetAll(); }
};

TEST(PairBall, FarCandidateMakesNoPairChecksAndStaleIndexIsDropped) {
  // Pairs (0, 3) and (1, 4) on a unit line of 10 nodes, d_t = 1: nodes 6..9
  // are farther than d_t from every pair endpoint, so a scan never visits
  // their candidates.
  const Instance inst(msc::test::lineGraph(10), {{0, 3}, {1, 4}}, 1.0);
  const auto cands = CandidateSet::allPairs(10);
  const auto at = [&](NodeId a, NodeId b) {
    return static_cast<std::size_t>(cands.indexOf(Shortcut::make(a, b)));
  };
  SigmaEvaluator sigma(inst);
  std::vector<double> gains(cands.size());
  const MetricsScope metrics;
  auto& relaxations = msc::obs::counter("sigma.relaxations");
  auto& gainCalls = msc::obs::counter("sigma.gain_calls");

  // Ball products: (0,3) visits 0-3, 0-2, 0-4, 1-3; (1,4) visits 1-4,
  // 1-3, 1-5, 0-4, 2-4. Nine visits; 0-4 and 1-3 count for both pairs.
  sigma.scanGains(cands, gains, 1, {});
  EXPECT_EQ(gainCalls.value(), cands.size());
  EXPECT_EQ(relaxations.value(), 9u);
  EXPECT_EQ(gains[at(7, 9)], 0.0);
  EXPECT_EQ(gains[at(0, 4)], 2.0);
  EXPECT_EQ(gains[at(1, 3)], 2.0);
  EXPECT_EQ(gains[at(2, 4)], 1.0);

  // One probe checks both open pairs, near or far.
  EXPECT_EQ(sigma.gainIfAdd(Shortcut::make(7, 9)), 0.0);
  EXPECT_EQ(relaxations.value(), 11u);

  // add() re-checks the 2 open pairs; the next scan sees the new rows, in
  // which (0, 4) closed both pairs: nothing left to visit.
  sigma.add(Shortcut::make(0, 4));
  EXPECT_EQ(relaxations.value(), 13u);
  sigma.scanGains(cands, gains, 1, {});
  EXPECT_EQ(relaxations.value(), 13u);
  EXPECT_EQ(gainCalls.value(), 2 * cands.size() + 1);
  for (const double g : gains) EXPECT_EQ(g, 0.0);
}

TEST(PairBall, CompositesForwardTheScanHint) {
  const Instance inst(msc::test::lineGraph(10), {{0, 3}, {1, 4}}, 1.0);
  const auto cands = CandidateSet::allPairs(10);
  SigmaEvaluator first(inst);
  SigmaEvaluator second(inst);
  const std::vector<IncrementalEvaluator*> kids = {&first, &second};
  const std::vector<const SetFunction*> fns = {&first, &second};
  msc::core::SumEvaluator sum(kids, fns, "sum");
  msc::core::MinEvaluator min(kids, fns);
  msc::core::TruncatedSumEvaluator capped(kids, fns, 1.0);
  for (IncrementalEvaluator* eval :
       std::vector<IncrementalEvaluator*>{&sum, &min, &capped}) {
    eval->reset();
    std::vector<double> gains(cands.size());
    {
      // Both children scan in bulk: 9 ball-product visits each, where
      // probing would make 2 pair checks per candidate and child.
      const MetricsScope metrics;
      eval->scanGains(cands, gains, 1, {});
      EXPECT_EQ(msc::obs::counter("sigma.relaxations").value(), 18u);
      EXPECT_EQ(msc::obs::counter("sigma.gain_calls").value(),
                2 * cands.size());
    }
    for (std::size_t c = 0; c < cands.size(); ++c) {
      EXPECT_TRUE(sameBits(gains[c], eval->gainIfAdd(cands[c])));
    }
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

// -------------------------------------------------------- skip flags ---

TEST(ScanSkip, FlaggedCandidatesAreNeverProbedAndTheRestStayExact) {
  const auto inst = msc::test::randomInstance(30, 8, 1.2, 11);
  const auto cands = CandidateSet::allPairs(30);
  std::vector<std::uint8_t> skip(cands.size());
  for (std::size_t c = 0; c < skip.size(); c += 3) skip[c] = 1;
  SigmaEvaluator sigma(inst);
  MuEvaluator mu(inst, cands);
  NuEvaluator nu(inst);
  CountingProbes counted(sigma);
  msc::core::SumEvaluator sum({&counted, &nu}, {&sigma, &nu}, "sum");
  for (const int threads : {1, 4}) {
    for (IncrementalEvaluator* eval :
         std::vector<IncrementalEvaluator*>{&sigma, &mu, &nu, &counted, &sum}) {
      std::vector<double> gains(cands.size());
      const std::size_t before = counted.probes();
      eval->scanGains(cands, gains, threads, skip);
      if (eval == &counted || eval == &sum) {
        // The default loop probes exactly the unflagged candidates.
        EXPECT_EQ(counted.probes() - before,
                  cands.size() - (cands.size() + 2) / 3);
      }
      for (std::size_t c = 0; c < cands.size(); ++c) {
        if (skip[c] != 0) continue;
        ASSERT_TRUE(sameBits(gains[c], eval->gainIfAdd(cands[c])))
            << cands[c].a << "-" << cands[c].b;
      }
    }
  }
  std::vector<double> gains(cands.size());
  const std::vector<std::uint8_t> shortSkip(cands.size() - 1);
  EXPECT_THROW(sigma.scanGains(cands, gains, 1, shortSkip),
               std::invalid_argument);
  EXPECT_THROW(counted.scanGains(cands, std::span<double>(gains).first(3), 1,
                                 {}),
               std::invalid_argument);
}

TEST(ScanSkip, ReportedGainEvaluationsEqualProbesOnTheDefaultPath) {
  // A probe-counting decorator (perfbench's traced replay is one) must see
  // exactly the gain evaluations each solver reports.
  const auto inst = msc::test::randomInstance(30, 8, 1.2, 13);
  const auto cands = CandidateSet::allPairs(30);
  for (const int threads : {1, 4}) {
    const SolveOptions options{.k = 4, .threads = threads};
    SigmaEvaluator sigma(inst);
    CountingProbes greedy(sigma);
    const auto g = msc::core::greedyMaximize(greedy, cands, options);
    EXPECT_EQ(g.gainEvaluations, greedy.probes());
    MuEvaluator mu(inst, cands);
    NuEvaluator nu(inst);
    CountingProbes aaSigma(sigma);
    CountingProbes aaMu(mu);
    CountingProbes aaNu(nu);
    const auto aa = msc::core::sandwichApproximation(aaSigma, aaMu, aaNu, sigma,
                                                     nu, cands, options);
    EXPECT_EQ(aa.gainEvaluations,
              aaSigma.probes() + aaMu.probes() + aaNu.probes());
    CountingProbes budgeted(sigma);
    const auto b = msc::core::budgetedGreedy(budgeted, cands,
                                             msc::core::unitCost(), 4.0, options);
    EXPECT_EQ(b.gainEvaluations, budgeted.probes());
  }
}

// ------------------------------------------------------------ ν argmax ---

// Greedy's pick from a full scan: every unskipped gain from scanGains, then
// the first strict maximum among the positive ones.
msc::core::GainPick fullScanPick(NuEvaluator& nu, const CandidateSet& cands,
                                 int threads,
                                 std::span<const std::uint8_t> skip) {
  std::vector<double> gains(cands.size());
  nu.scanGains(cands, gains, threads, skip);
  msc::core::GainPick pick;
  for (std::size_t c = 0; c < cands.size(); ++c) {
    if (skip[c] != 0) continue;
    ++pick.evaluations;
    if (gains[c] > 0.0 && (pick.index < 0 || gains[c] > pick.gain)) {
      pick.index = static_cast<long>(c);
      pick.gain = gains[c];
    }
  }
  return pick;
}

enum class WeightKind { Unit, Random, ZeroHolding, Huge };

const char* weightKindName(WeightKind k) {
  switch (k) {
    case WeightKind::Unit: return "unit";
    case WeightKind::Random: return "random";
    case WeightKind::ZeroHolding: return "zero_holding";
    case WeightKind::Huge: return "huge";
  }
  return "?";
}

std::vector<double> makeWeights(WeightKind kind, std::size_t m) {
  switch (kind) {
    case WeightKind::Unit: return {};
    case WeightKind::Random: return sampleWeights(m, 43);
    case WeightKind::ZeroHolding: return zeroHoldingWeights(m);
    case WeightKind::Huge: {
      // Pair-node weights of DBL_MAX/16..DBL_MAX/4: a node covering a few
      // pair-nodes stays finite, and two such nodes' sum overflows.
      std::vector<double> w(m);
      for (std::size_t i = 0; i < m; ++i) {
        w[i] = std::numeric_limits<double>::max() /
               static_cast<double>(2 + i % 7);
      }
      return w;
    }
  }
  return {};
}

// Every third pair of nodes: a sparse explicit list, which takes the
// default argmax.
CandidateSet sparseCandidates(int n) {
  ShortcutList list;
  const auto all = CandidateSet::allPairs(n);
  for (std::size_t c = 0; c < all.size(); c += 3) list.push_back(all[c]);
  return CandidateSet(std::move(list));
}

// Endpoint v's ν score in the initial state, with the evaluator's rounding:
// the weights of the pair-nodes v covers, summed in index order.
double initialEndpointScore(const Instance& inst, const NuEvaluator& nu,
                            NodeId v) {
  const auto& nodes = inst.pairNodes();
  double sum = 0.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (inst.baseRow(nodes[i])[static_cast<std::size_t>(v)] <=
        inst.distanceThreshold()) {
      sum += nu.nodeWeight(i);
    }
  }
  return sum;
}

// True when some endpoint pair's scores are finite but add up to +inf, in
// the initial state.
bool endpointSumsOverflow(const Instance& inst, const NuEvaluator& nu,
                          const CandidateSet& cands) {
  std::vector<double> g;
  for (const NodeId v : cands.endpoints()) {
    const double sum = initialEndpointScore(inst, nu, v);
    if (sum != kInf) g.push_back(sum);
  }
  for (const double x : g) {
    for (const double y : g) {
      if (x + y == kInf) return true;
    }
  }
  return false;
}

class NuArgmaxThreads : public ::testing::TestWithParam<int> {};

// The ν argmax (a best-first search over endpoint pairs on complete sets,
// the default scan otherwise) returns the full scan's pick, gain bits and
// unskipped count at every greedy round: across generators with tied
// distances and components, weights whose rounding matters or overflows,
// thresholds 0, median and +inf (where rounds with every gain 0 occur),
// complete and incomplete candidate sets.
TEST_P(NuArgmaxThreads, MatchesTheFullScanFoldAtEveryRound) {
  const int threads = GetParam();
  std::vector<GenCase> graphs = generators();
  {
    // Two lines 0-1-2-3 and 4-5-6-7: every cross pair stays open.
    Graph g(8);
    for (int v : {0, 1, 2}) g.addEdge(v, v + 1, 1.0);
    for (int v : {4, 5, 6}) g.addEdge(v, v + 1, 1.0);
    graphs.push_back({"disconnected", std::move(g)});
  }
  bool sawOverflow = false;
  int zeroRounds = 0;
  for (const GenCase& gc : graphs) {
    SCOPED_TRACE(gc.name);
    const auto pairs = samplePairs(gc.graph, 12, 29);
    const Instance probe(gc.graph, pairs, 0.0);
    const double median =
        msc::test::medianThreshold(probe.distanceOracle(), pairs);
    for (const double dt : {0.0, median, kInf}) {
      SCOPED_TRACE("dt " + std::to_string(dt));
      const Instance inst(gc.graph, pairs, dt, threads);
      std::vector<std::pair<const char*, CandidateSet>> sets;
      sets.emplace_back("all_pairs", makeCandidates(CandKind::AllPairs, inst));
      sets.emplace_back("pair_nodes",
                        makeCandidates(CandKind::PairNodes, inst));
      sets.emplace_back("incident", makeCandidates(CandKind::Incident, inst));
      sets.emplace_back("sparse", sparseCandidates(inst.graph().nodeCount()));
      for (const auto& [setName, cands] : sets) {
        SCOPED_TRACE(setName);
        const bool complete = std::string(setName) == "all_pairs" ||
                              std::string(setName) == "pair_nodes";
        ASSERT_EQ(cands.holdsAllEndpointPairs(), complete);
        for (const WeightKind wk : {WeightKind::Unit, WeightKind::Random,
                                    WeightKind::ZeroHolding, WeightKind::Huge}) {
          SCOPED_TRACE(weightKindName(wk));
          NuEvaluator nu(inst, makeWeights(wk, pairs.size()));
          if (wk == WeightKind::Huge && endpointSumsOverflow(inst, nu, cands)) {
            sawOverflow = true;
          }
          std::vector<std::uint8_t> chosen(cands.size(), 0);
          std::vector<double> scratch;
          msc::util::Rng rng(11);
          for (int round = 0; round < 5; ++round) {
            SCOPED_TRACE("round " + std::to_string(round));
            const auto want = fullScanPick(nu, cands, threads, chosen);
            const auto got = nu.argmaxGain(cands, threads, chosen, scratch);
            ASSERT_EQ(got.index, want.index);
            ASSERT_TRUE(sameBits(got.gain, want.gain));
            ASSERT_EQ(got.evaluations, want.evaluations);
            if (want.index < 0) ++zeroRounds;
            // Commit the pick, or any unchosen candidate when none helps.
            std::size_t c = static_cast<std::size_t>(want.index);
            if (want.index < 0) {
              do {
                c = rng.below(cands.size());
              } while (chosen[c] != 0);
            }
            chosen[c] = 1;
            nu.add(cands[c]);
          }
        }
      }
    }
  }
  EXPECT_TRUE(sawOverflow);
  EXPECT_GT(zeroRounds, 0);
}

// Hubs on a path of long edges, each with 2–3 pair-node leaves, d_t = 1,
// pair weights in tenths: endpoints cover disjoint leaf sets, so many pairs
// have equal gains in real arithmetic whose computed sums differ by an ulp,
// and a pick's gain can exceed fl(g(a) + g(b)). Without the bound's
// rounding slack the walk then prunes the true pick in a few instances per
// thousand; with it, every round matches the full scan.
TEST_P(NuArgmaxThreads, NearTiesWithinAnUlpKeepTheFullScanPick) {
  const int threads = GetParam();
  int exceedsPlainBound = 0;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    msc::util::Rng rng(seed);
    const int hubs = 4 + static_cast<int>(rng.below(4));
    const int leaves = 2 + static_cast<int>(rng.below(2));
    Graph g(hubs * (leaves + 1));
    for (int h = 0; h + 1 < hubs; ++h) g.addEdge(h, h + 1, 10.0);
    for (int h = 0; h < hubs; ++h) {
      for (int l = 0; l < leaves; ++l) g.addEdge(h, hubs + h * leaves + l, 1.0);
    }
    std::vector<SocialPair> pairs;
    std::vector<double> weights;
    const int tries = 3 + static_cast<int>(rng.below(6));
    for (int i = 0; i < tries; ++i) {
      const int a = static_cast<int>(rng.below(hubs * leaves));
      const int b = static_cast<int>(rng.below(hubs * leaves));
      if (a / leaves == b / leaves) continue;  // same hub: within d_t
      pairs.push_back({hubs + a, hubs + b});
      weights.push_back(0.1 * static_cast<double>(1 + rng.below(9)));
    }
    if (pairs.size() < 2) continue;
    const Instance inst(std::move(g), pairs, 1.0, threads);
    NuEvaluator nu(inst, weights);
    const auto cands = CandidateSet::allPairs(inst.graph().nodeCount());
    std::vector<std::uint8_t> chosen(cands.size(), 0);
    std::vector<double> scratch;
    for (int round = 0; round < 4; ++round) {
      const auto want = fullScanPick(nu, cands, threads, chosen);
      const auto got = nu.argmaxGain(cands, threads, chosen, scratch);
      ASSERT_EQ(got.index, want.index) << "round " << round;
      ASSERT_TRUE(sameBits(got.gain, want.gain)) << "round " << round;
      if (want.index < 0) break;
      const Shortcut f = cands[static_cast<std::size_t>(want.index)];
      if (round == 0 && want.gain > initialEndpointScore(inst, nu, f.a) +
                                        initialEndpointScore(inst, nu, f.b)) {
        ++exceedsPlainBound;
      }
      chosen[static_cast<std::size_t>(want.index)] = 1;
      nu.add(f);
    }
  }
  EXPECT_GT(exceedsPlainBound, 0);
}

INSTANTIATE_TEST_SUITE_P(Threads, NuArgmaxThreads, ::testing::Values(1, 4));

// greedy.gain_evals, the sandwich's ν count and the pass's gainEvaluations
// count every unskipped candidate of every round, as a full scan scores
// them; nu.gain_calls counts the exact ν gains computed, which the argmax
// prunes on a complete set and the default scan does not.
TEST(NuArgmax, CountersReportUnskippedCandidatesAndComputedGains) {
  const auto inst = msc::test::randomInstance(60, 15, 1.2, 7);
  const SolveOptions options{.k = 4};
  // A pass of `rounds` picks scans once more when it stops early.
  const auto scans = [&](int rounds) {
    return rounds < options.k ? rounds + 1 : rounds;
  };
  const auto unskipped = [&](std::size_t size, int rounds) {
    std::size_t total = 0;
    for (int r = 0; r < scans(rounds); ++r) {
      total += size - static_cast<std::size_t>(r);
    }
    return total;
  };
  auto& greedyEvals = msc::obs::counter("greedy.gain_evals");
  auto& nuGains = msc::obs::counter("nu.gain_calls");

  const auto all = CandidateSet::allPairs(60);
  {
    const MetricsScope metrics;
    NuEvaluator nu(inst);
    const auto pass = msc::core::greedyMaximize(nu, all, options);
    ASSERT_EQ(pass.rounds, 4);
    const std::size_t evals = unskipped(all.size(), pass.rounds);
    EXPECT_EQ(pass.gainEvaluations, evals);
    EXPECT_EQ(greedyEvals.value(), evals);
    // Each add() computes its gain once; the rest are the argmax's.
    const std::uint64_t computed = nuGains.value() - 4;
    EXPECT_GT(computed, 0u);
    EXPECT_LT(computed * 20, evals);
  }
  {
    const MetricsScope metrics;
    const auto aa = msc::core::sandwichApproximation(inst, all, options);
    EXPECT_EQ(msc::obs::counter("sandwich.gain_evals.nu").value(),
              unskipped(all.size(), static_cast<int>(aa.placementNu.size())));
  }
  {
    // A sparse set scans in full: every candidate's gain, every round.
    const auto sparse = sparseCandidates(60);
    const MetricsScope metrics;
    NuEvaluator nu(inst);
    const auto pass = msc::core::greedyMaximize(nu, sparse, options);
    EXPECT_EQ(pass.gainEvaluations, unskipped(sparse.size(), pass.rounds));
    EXPECT_EQ(nuGains.value(),
              sparse.size() * static_cast<std::size_t>(scans(pass.rounds)) +
                  static_cast<std::size_t>(pass.rounds));
  }
}

// ------------------------------------------------------ building blocks ---

TEST(CandidateIndex, IndexOfMatchesTheSortedList) {
  const std::vector<CandidateSet> sets = {
      CandidateSet::allPairs(7),
      CandidateSet::incidentTo(7, 3),
      CandidateSet(ShortcutList{Shortcut::make(8, 3), Shortcut::make(5, 3),
                                Shortcut::make(1, 9), Shortcut::make(1, 2),
                                Shortcut::make(2, 9)}),
      CandidateSet(ShortcutList{Shortcut::make(2, 4), Shortcut::make(2, 6),
                                Shortcut::make(4, 6)}),
      CandidateSet(ShortcutList{})};
  for (const CandidateSet& set : sets) {
    for (std::size_t i = 0; i < set.size(); ++i) {
      EXPECT_EQ(set.indexOf(set[i]), static_cast<long>(i));
    }
    for (NodeId a = -1; a < 12; ++a) {
      for (NodeId b = -1; b < 12; ++b) {
        const Shortcut f{a, b};
        const auto it = std::find(set.all().begin(), set.all().end(), f);
        const long want = it == set.all().end()
                              ? -1
                              : static_cast<long>(it - set.all().begin());
        EXPECT_EQ(set.indexOf(f), want) << a << "-" << b;
      }
    }
  }
}

TEST(BallProduct, HitsEveryPassingPairCandidateOnceInPairOrder) {
  const auto g = generators()[0].graph;
  const auto pairs = samplePairs(g, 12, 7);
  const Instance inst(g, pairs, quartileThreshold(g, pairs));
  const double dt = inst.distanceThreshold();
  const auto cands = CandidateSet::allPairs(g.nodeCount());
  std::vector<msc::core::PairRows> rows;
  for (const SocialPair& p : pairs) {
    rows.push_back({inst.baseRow(p.u).data(), inst.baseRow(p.w).data()});
  }
  msc::core::BallProduct balls;
  balls.build(pairs, rows, dt, cands);

  std::set<std::pair<std::size_t, std::size_t>> want;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const double* ru = rows[i].u;
    const double* rw = rows[i].w;
    if (ru[static_cast<std::size_t>(pairs[i].w)] <= dt) continue;
    for (std::size_t c = 0; c < cands.size(); ++c) {
      const Shortcut& f = cands[c];
      if (std::min(ru[f.a] + rw[f.b], ru[f.b] + rw[f.a]) <= dt) {
        want.insert({i, c});
      }
    }
  }
  ASSERT_FALSE(want.empty());

  // Whole range, then split in two: the same hits, each once, pairs
  // ascending within every range.
  const std::size_t mid = cands.size() / 3;
  std::set<std::pair<std::size_t, std::size_t>> got;
  std::size_t visits = 0;
  for (const auto& [begin, end] :
       std::vector<std::pair<std::size_t, std::size_t>>{{0, mid},
                                                        {mid, cands.size()}}) {
    std::size_t lastPair = 0;
    visits += balls.forEachHit(begin, end, [&](std::size_t i, std::size_t c) {
      EXPECT_GE(i, lastPair);
      lastPair = i;
      EXPECT_GE(c, begin);
      EXPECT_LT(c, end);
      EXPECT_TRUE(got.insert({i, c}).second) << "hit twice: " << i << "/" << c;
    });
  }
  EXPECT_EQ(got, want);
  EXPECT_GE(visits, want.size());
  EXPECT_EQ(balls.forEachHit(0, cands.size(), [](std::size_t, std::size_t) {}),
            visits);
}

TEST(BallProduct, BothOrientationsPassingCountOnce) {
  // 0 -0.1- 1 -0.1- 2 =0= 3 -0.1- 4 -0.4- 5. From 0, d(0,5) =
  // (((0.1 + 0.1) + 0) + 0.1) + 0.4 = 0.7000000000000001, so pair (0, 5)
  // is open at d_t = 0.7; but d(0,2) + d(5,3) = 0.2 + 0.5 = 0.7 and
  // d(0,3) + d(5,2) = 0.7 as well: rounding lets both orientations of
  // (2, 3) pass (exact distances would obey the triangle inequality and
  // never do), and the pair must still count once.
  Graph g(6);
  g.addEdge(0, 1, 0.1);
  g.addEdge(1, 2, 0.1);
  g.addEdge(2, 3, 0.0);
  g.addEdge(3, 4, 0.1);
  g.addEdge(4, 5, 0.4);
  const Instance inst(std::move(g), {{0, 5}}, 0.7);
  const auto cands = CandidateSet::allPairs(6);
  SigmaEvaluator sigma(inst);
  MuEvaluator mu(inst, cands);
  ASSERT_EQ(sigma.satisfiedCount(), 0);
  ASSERT_EQ(sigma.gainIfAdd(Shortcut::make(2, 3)), 1.0);
  for (IncrementalEvaluator* eval :
       std::vector<IncrementalEvaluator*>{&sigma, &mu}) {
    std::vector<double> gains(cands.size());
    eval->scanGains(cands, gains, 1, {});
    EXPECT_EQ(gains[static_cast<std::size_t>(
                  cands.indexOf(Shortcut::make(2, 3)))],
              1.0);
    expectScanMatchesProbes(*eval, cands, 1);
  }
}

TEST(MuSets, PairWhoseRowsStraddleTheThresholdStaysInEverySet) {
  // 0 -0.1- 1 -0.2- 2 -0.3- 3: from 0, d(0,3) = (0.1 + 0.2) + 0.3 =
  // 0.6000000000000001; from 3, d(3,0) = (0.3 + 0.2) + 0.1 = 0.6. Pair
  // (3, 0) at d_t = 0.6 passes on u's row (every one-shortcut set holds
  // it) but is not base-satisfied (read from the lower endpoint's row).
  Graph g(6);
  g.addEdge(0, 1, 0.1);
  g.addEdge(1, 2, 0.2);
  g.addEdge(2, 3, 0.3);
  g.addEdge(3, 4, 1.0);
  g.addEdge(4, 5, 1.0);
  const Instance inst(std::move(g), {{5, 1}, {3, 0}}, 0.6);
  ASSERT_FALSE(inst.baseSatisfied(inst.pairs()[1]));
  const auto cands = CandidateSet::allPairs(6);
  MuEvaluator mu(inst, cands);
  msc::util::Bitset covered = baseSatisfiedBits(inst);
  std::vector<double> gains(cands.size());
  for (const Shortcut& f : {Shortcut::make(1, 4), Shortcut::make(0, 5)}) {
    mu.scanGains(cands, gains, 1, {});
    for (std::size_t c = 0; c < cands.size(); ++c) {
      ASSERT_TRUE(sameBits(gains[c], referenceMuGain(inst, covered, cands[c])))
          << cands[c].a << "-" << cands[c].b;
      ASSERT_TRUE(sameBits(gains[c], mu.gainIfAdd(cands[c])));
    }
    EXPECT_TRUE(mu.satisfiedBy(f).test(1));
    mu.add(f);
    covered |= msc::core::oneShortcutSet(inst, f);
  }
  EXPECT_EQ(mu.currentValue(), static_cast<double>(covered.count()));
}

}  // namespace
