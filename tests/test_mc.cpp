// Monte-Carlo reliability engine: world sampling determinism, exact
// cross-checks on enumerable graphs, the common-random-numbers contract,
// the closed-form gain probe against the propagating reference, parallel
// bit-identity of mc::greedy, and serve's mc_reliability objective against
// the direct solver path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/candidates.h"
#include "core/instance.h"
#include "core/options.h"
#include "gen/watts_strogatz.h"
#include "graph/graph_io.h"
#include "helpers.h"
#include "mc/reliability.h"
#include "mc/solver.h"
#include "mc/world_sampler.h"
#include "reference.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/parallel.h"
#include "wireless/link_model.h"

namespace {

namespace json = msc::serve::json;
using msc::core::CandidateSet;
using msc::core::Instance;
using msc::core::Shortcut;
using msc::core::ShortcutList;
using msc::core::SocialPair;
using msc::core::SolveOptions;
using msc::graph::Graph;
using msc::mc::Objective;
using msc::mc::ReliabilityEvaluator;
using msc::mc::WorldConfig;
using msc::mc::WorldSet;

// Diamond 0-1-3 / 0-2-3: two edge-disjoint two-hop paths, no direct link.
// With p_t = 0.4 the best single path (failure ~0.551) misses the surrogate
// requirement while the true two-path reliability (~0.652) exceeds 1 - p_t
// = 0.6 — the smallest graph exhibiting the surrogate gap.
Graph diamondGraph() {
  Graph g(4);
  g.addEdge(0, 1, 0.4);
  g.addEdge(1, 3, 0.4);
  g.addEdge(0, 2, 0.5);
  g.addEdge(2, 3, 0.5);
  return g;
}

// Ring of 10 with varied lengths plus chords: n = 10, m = 15 <= 20, so all
// 2^15 worlds are enumerable, and the chords create multi-path redundancy.
Graph ringWithChords() {
  Graph g(10);
  const double ring[] = {0.3, 0.5, 0.2, 0.6, 0.4, 0.3, 0.5, 0.2, 0.4, 0.6};
  for (int i = 0; i < 10; ++i) g.addEdge(i, (i + 1) % 10, ring[i]);
  g.addEdge(0, 5, 0.7);
  g.addEdge(2, 7, 0.5);
  g.addEdge(1, 6, 0.6);
  g.addEdge(3, 8, 0.4);
  g.addEdge(4, 9, 0.5);
  return g;
}

// ------------------------------------------------------------- WorldSet ---

TEST(WorldSet, DeterministicForSeedAndRejectsBadWorldCount) {
  const Graph g = msc::test::randomGraph(20, 0.2, 3);
  const WorldSet a(g, {.worlds = 256, .seed = 7});
  const WorldSet b(g, {.worlds = 256, .seed = 7});
  ASSERT_EQ(a.worlds(), 256);
  for (std::size_t e = 0; e < g.edgeCount(); ++e) {
    EXPECT_EQ(a.edgePlane(e), b.edgePlane(e));
  }
  const WorldSet c(g, {.worlds = 256, .seed = 8});
  bool anyDiffer = false;
  for (std::size_t e = 0; e < g.edgeCount(); ++e) {
    if (!(a.edgePlane(e) == c.edgePlane(e))) anyDiffer = true;
  }
  EXPECT_TRUE(anyDiffer);
  EXPECT_THROW(WorldSet(g, {.worlds = 0, .seed = 1}), std::invalid_argument);
}

TEST(WorldSet, SurvivalRateTracksEdgeProbability) {
  Graph g(2);
  g.addEdge(0, 1, 0.5);  // pUp = e^-0.5 ~ 0.6065
  const int w = 8192;
  const WorldSet ws(g, {.worlds = w, .seed = 11});
  const double rate =
      static_cast<double>(ws.edgePlane(0).count()) / static_cast<double>(w);
  EXPECT_NEAR(rate, std::exp(-0.5), 0.02);
}

TEST(WorldSet, ZeroLengthEdgeUpInEveryWorld) {
  Graph g(2);
  g.addEdge(0, 1, 0.0);
  const WorldSet ws(g, {.worlds = 100, .seed = 1});
  EXPECT_EQ(ws.edgePlane(0).count(), 100u);
}

TEST(WorldSet, UpFlagsMatchPlanes) {
  const Graph g = msc::test::randomGraph(12, 0.3, 5);
  const WorldSet ws(g, {.worlds = 70, .seed = 2});
  for (const int world : {0, 31, 69}) {
    const auto up = ws.upFlags(world);
    ASSERT_EQ(up.size(), g.edgeCount());
    for (std::size_t e = 0; e < up.size(); ++e) {
      EXPECT_EQ(up[e] != 0, ws.edgeUpIn(world, e));
    }
  }
  EXPECT_THROW(ws.upFlags(70), std::out_of_range);
  EXPECT_THROW(ws.upFlags(-1), std::out_of_range);
}

// ------------------------------------------- estimator vs exact worlds ---

TEST(Reliability, DiamondMatchesClosedFormWithinHalfWidth) {
  const Graph g = diamondGraph();
  const std::vector<SocialPair> pairs = {{0, 3}};
  const auto inst = Instance::fromFailureThreshold(g, pairs, 0.4);

  // Exact: both 2-hop paths are edge-disjoint, R = a + b - ab.
  const double a = std::exp(-0.8), b = std::exp(-1.0);
  const double exact = a + b - a * b;
  const auto viaEnum = msc::mc::exactPairReliabilities(inst, {});
  ASSERT_EQ(viaEnum.size(), 1u);
  EXPECT_NEAR(viaEnum[0], exact, 1e-12);

  const WorldSet ws(g, {.worlds = 4096, .seed = 1});
  ReliabilityEvaluator eval(inst, ws);
  eval.reset();
  const auto est = eval.pairEstimates(3.29);  // 99.9% band
  ASSERT_EQ(est.size(), 1u);
  EXPECT_NEAR(est[0].reliability, exact, est[0].halfWidth);
  // The surrogate misses this pair (best path failure ~0.551 > p_t = 0.4)
  // but the true multi-path reliability maintains it.
  EXPECT_GT(inst.baseDistance(pairs[0]),
            inst.distanceThreshold());  // surrogate: unsatisfied
  EXPECT_TRUE(est[0].maintained);
  EXPECT_EQ(eval.maintainedCount(), 1);
  EXPECT_EQ(msc::mc::exactSigma(inst, {}), 1);
}

TEST(Reliability, SampledSigmaConvergesToExactOnEnumerableGraph) {
  const Graph g = ringWithChords();
  const std::vector<SocialPair> pairs = {{0, 4}, {1, 7}, {2, 9},
                                         {3, 6}, {5, 8}};
  const auto inst = Instance::fromFailureThreshold(g, pairs, 0.35);

  const auto exact = msc::mc::exactPairReliabilities(inst, {});
  const int exactSig = msc::mc::exactSigma(inst, {});

  const WorldSet ws(g, {.worlds = 4096, .seed = 9});
  ReliabilityEvaluator eval(inst, ws);
  const auto est = eval.pairEstimates(3.29);
  ASSERT_EQ(est.size(), pairs.size());
  for (std::size_t i = 0; i < est.size(); ++i) {
    EXPECT_NEAR(est[i].reliability, exact[i], est[i].halfWidth)
        << "pair " << i;
  }
  // σ̂ may only disagree with exact σ on pairs flagged uncertain.
  EXPECT_LE(std::abs(eval.maintainedCount() - exactSig),
            eval.uncertainCount(3.29));

  // And with a placement: a shortcut is up in every world.
  const ShortcutList placement = {Shortcut::make(0, 4)};
  const auto exactWith = msc::mc::exactPairReliabilities(inst, placement);
  EXPECT_NEAR(exactWith[0], 1.0, 1e-12);
  ReliabilityEvaluator eval2(inst, ws);
  eval2.evaluate(placement);
  EXPECT_EQ(eval2.reachedWorlds(0), static_cast<std::size_t>(ws.worlds()));
}

// -------------------------------------------- incremental consistency ---

TEST(Reliability, IncrementalMatchesSetFunctionAndGainsAreExactDeltas) {
  const Graph g = ringWithChords();
  const std::vector<SocialPair> pairs = {{0, 4}, {1, 7}, {2, 9}, {3, 6}};
  const auto inst = Instance::fromFailureThreshold(g, pairs, 0.3);
  const WorldSet ws(g, {.worlds = 512, .seed = 4});

  for (const Objective obj :
       {Objective::MaintainedCount, Objective::TotalReliability}) {
    ReliabilityEvaluator eval(inst, ws, obj);
    const ShortcutList placement = {Shortcut::make(0, 4),
                                    Shortcut::make(2, 9)};
    ShortcutList sofar;
    for (const Shortcut& f : placement) {
      const double before = eval.currentValue();
      const double gain = eval.gainIfAdd(f);
      EXPECT_GE(gain, 0.0);  // reachability only grows
      eval.add(f);
      sofar.push_back(f);
      EXPECT_DOUBLE_EQ(eval.currentValue(), before + gain);
      EXPECT_DOUBLE_EQ(eval.value(sofar), eval.currentValue());
    }
    eval.reset();
    EXPECT_DOUBLE_EQ(eval.currentValue(), eval.value({}));
  }
}

TEST(Reliability, CommonRandomNumbersMakeValuesMonotoneAcrossNestedSets) {
  // Under one WorldSet the objective is a deterministic set function, so
  // F ⊆ F' implies value(F) <= value(F') exactly — no sampling noise can
  // reorder nested placements. (Independent resampling per evaluation
  // would break this; sharing the worlds is what makes greedy's argmax
  // comparisons meaningful.)
  const Graph g = msc::test::randomGraph(16, 0.2, 6);
  std::vector<SocialPair> pairs = {{0, 15}, {1, 14}, {2, 13}};
  const auto inst = Instance::fromFailureThreshold(g, pairs, 0.25);
  const WorldSet ws(g, {.worlds = 256, .seed = 3});
  ReliabilityEvaluator eval(inst, ws, Objective::TotalReliability);

  msc::util::Rng rng(99);
  ShortcutList nested;
  double prev = eval.value(nested);
  for (int step = 0; step < 5; ++step) {
    const auto more = msc::test::randomPlacement(16, 1, rng);
    if (msc::core::contains(nested, more[0])) continue;
    nested.push_back(more[0]);
    const double next = eval.value(nested);
    EXPECT_GE(next, prev);
    prev = next;
  }
}

// ------------------------------------ closed form vs propagating probe ---

/// `base` plus a 3-node path on fresh nodes: a component that none of
/// `base`'s nodes reaches in any world.
Graph withDetachedPath(const Graph& base) {
  const int n = base.nodeCount();
  Graph g(n + 3);
  for (const auto& e : base.edges()) g.addEdge(e.u, e.v, e.length);
  g.addEdge(n, n + 1, 0.3);
  g.addEdge(n + 1, n + 2, 0.6);
  return g;
}

struct ProbeCase {
  const char* generator;
  Graph graph;
  std::vector<SocialPair> pairs;
  ShortcutList forcedCommits;  // committed first, then greedy's argmax
};

ProbeCase probeCase(const char* generator, const Graph& base) {
  const int n = base.nodeCount();
  const auto& e0 = base.edges().front();
  return {generator,
          withDetachedPath(base),
          {{0, n - 1}, {0, n / 2}, {n / 2, n - 1},  // endpoints shared
           {1, n - 2}, {1, n - 2}, {n - 2, 1},      // duplicate pairs
           {2, n + 1}},                             // different components
          {Shortcut::make(e0.u, e0.v),              // parallel to a base edge
           Shortcut::make(3, n + 2)}};              // bridges the components
}

TEST(Reliability, ClosedFormGainMatchesPropagatingProbe) {
  const std::vector<ProbeCase> cases = {
      probeCase("erdos_renyi", msc::test::randomGraph(16, 0.16, 21)),
      probeCase("watts_strogatz",
                msc::gen::wattsStrogatz({.nodes = 16, .seed = 4})),
  };
  constexpr int kCommits = 3;
  std::size_t positiveGains = 0;
  for (const ProbeCase& pc : cases) {
    const auto inst = Instance::fromFailureThreshold(pc.graph, pc.pairs, 0.3);
    const auto cands = CandidateSet::allPairs(pc.graph.nodeCount());
    // W off a word multiple (1, 63, 65) exercises the zero-tail invariant.
    for (const int w : {1, 63, 64, 65, 256}) {
      const WorldSet worlds(inst.graph(), {.worlds = w, .seed = 5});
      for (const Objective obj :
           {Objective::MaintainedCount, Objective::TotalReliability}) {
        ReliabilityEvaluator eval(inst, worlds, obj);
        msc::test::PropagatingMcProbe ref(inst, worlds, obj,
                                          eval.maintainThreshold());
        ShortcutList committed;
        for (int step = 0; step <= kCommits; ++step) {
          const std::string where = std::string(pc.generator) + " W=" +
                                    std::to_string(w) + " objective " +
                                    eval.name() + " after " +
                                    std::to_string(step) + " commits";
          ASSERT_EQ(eval.currentValue(), ref.currentValue()) << where;
          const auto scan = [&](int threads) {
            std::vector<double> gains(cands.size());
            msc::util::parallelForThreads(
                threads, 0, cands.size(), 7,
                [&](std::size_t b, std::size_t e) {
                  for (std::size_t i = b; i < e; ++i) {
                    gains[i] = eval.gainIfAdd(cands[i]);
                  }
                });
            return gains;
          };
          const std::vector<double> gains1 = scan(1);
          const std::vector<double> gains4 = scan(4);
          for (std::size_t i = 0; i < cands.size(); ++i) {
            const double want = ref.gainIfAdd(cands[i]);
            if (want > 0.0) ++positiveGains;
            ASSERT_EQ(gains1[i], want)
                << where << ", candidate " << cands[i].a << '-' << cands[i].b;
            ASSERT_EQ(gains4[i], want)
                << where << ", candidate " << cands[i].a << '-' << cands[i].b;
          }
          for (const Shortcut& f : committed) {
            EXPECT_EQ(eval.gainIfAdd(f), 0.0) << where;
          }
          if (step == kCommits) break;
          const Shortcut next =
              step < static_cast<int>(pc.forcedCommits.size())
                  ? pc.forcedCommits[static_cast<std::size_t>(step)]
                  : cands[static_cast<std::size_t>(
                        std::max_element(gains1.begin(), gains1.end()) -
                        gains1.begin())];
          eval.add(next);
          ref.add(next);
          committed.push_back(next);
        }
      }
    }
  }
  // The comparison must not be vacuous: many probes have a real gain.
  EXPECT_GT(positiveGains, 1000u);
}

// --------------------------------------------------- solver contracts ---

TEST(McSolver, GreedyThreadsBitIdentity) {
  const Graph g = msc::test::randomGraph(30, 0.12, 3);
  const std::vector<SocialPair> pairs = {{0, 29}, {1, 27}, {2, 25},
                                         {3, 23}, {4, 21}, {5, 19}};
  const auto inst = Instance::fromFailureThreshold(g, pairs, 0.3);
  const auto cands = CandidateSet::allPairs(g.nodeCount());

  const msc::mc::McOptions mcOpts{.worlds = 256};
  const auto one = msc::mc::greedy(
      inst, cands, SolveOptions{.k = 4, .threads = 1, .seed = 5}, mcOpts);
  const auto four = msc::mc::greedy(
      inst, cands, SolveOptions{.k = 4, .threads = 4, .seed = 5}, mcOpts);
  EXPECT_EQ(one.placement, four.placement);
  EXPECT_EQ(one.sigmaHat, four.sigmaHat);
  ASSERT_EQ(one.estimates.size(), four.estimates.size());
  for (std::size_t i = 0; i < one.estimates.size(); ++i) {
    EXPECT_EQ(one.estimates[i].reliability, four.estimates[i].reliability);
  }

  const auto sw1 = msc::mc::sandwich(
      inst, cands, SolveOptions{.k = 4, .threads = 1, .seed = 5}, mcOpts);
  const auto sw4 = msc::mc::sandwich(
      inst, cands, SolveOptions{.k = 4, .threads = 4, .seed = 5}, mcOpts);
  EXPECT_EQ(sw1.placement, sw4.placement);
  EXPECT_EQ(sw1.winner, sw4.winner);
  EXPECT_EQ(sw1.sigmaHat, sw4.sigmaHat);
}

TEST(McSolver, SandwichNeverBelowGreedyAndFillsResultFields) {
  const Graph g = ringWithChords();
  const std::vector<SocialPair> pairs = {{0, 4}, {1, 7}, {2, 9},
                                         {3, 6}, {5, 8}};
  const auto inst = Instance::fromFailureThreshold(g, pairs, 0.35);
  const auto cands = CandidateSet::allPairs(g.nodeCount());
  const SolveOptions options{.k = 3, .threads = 1, .seed = 2};
  const msc::mc::McOptions mcOpts{.worlds = 512};

  const auto gr = msc::mc::greedy(inst, cands, options, mcOpts);
  const auto sw = msc::mc::sandwich(inst, cands, options, mcOpts);
  EXPECT_GE(sw.sigmaHat, gr.sigmaHat);
  EXPECT_EQ(gr.winner, "mc_greedy");
  EXPECT_TRUE(sw.winner == "mc_greedy" || sw.winner == "mc_soft" ||
              sw.winner == "surrogate");
  EXPECT_EQ(gr.worlds, 512);
  EXPECT_EQ(gr.pairs, 5);
  EXPECT_EQ(gr.estimates.size(), 5u);
  EXPECT_GT(gr.gainEvaluations, 0u);
}

// --------------------------------------------------------------- serve ---

std::string graphText(const Graph& g) {
  std::ostringstream os;
  msc::graph::writeEdgeList(os, g);
  return os.str();
}

std::string jsonEscape(const std::string& raw) {
  std::string out;
  for (const char c : raw) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

TEST(McServe, SolveMcReliabilityMatchesDirectPath) {
  const double pt = 0.3;
  const Graph g = msc::test::randomGraph(24, 0.15, 7);
  msc::serve::Engine engine;
  ASSERT_EQ(json::parse(engine.handleLine(
                            "{\"cmd\":\"load_graph\",\"as\":\"g\",\"text\":\"" +
                            jsonEscape(graphText(g)) + "\"}"))
                .find("status")
                ->asString(),
            "ok");
  ASSERT_EQ(json::parse(engine.handleLine(
                            "{\"cmd\":\"load_pairs\",\"as\":\"p\",\"text\":\"" +
                            jsonEscape("0 23\n1 21\n2 19\n3 17\n") + "\"}"))
                .find("status")
                ->asString(),
            "ok");

  const std::vector<SocialPair> pairs = {{0, 23}, {1, 21}, {2, 19}, {3, 17}};
  const auto inst = Instance::fromFailureThreshold(g, pairs, pt);
  const auto cands = CandidateSet::allPairs(g.nodeCount());
  const SolveOptions options{.k = 3, .threads = 2, .seed = 1};
  const msc::mc::McOptions mcOpts{.worlds = 512};

  {
    const auto direct = msc::mc::greedy(inst, cands, options, mcOpts);
    const auto resp = json::parse(engine.handleLine(
        "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.3,"
        "\"objective\":\"mc_reliability\",\"algo\":\"greedy\",\"worlds\":512,"
        "\"k\":3,\"threads\":2,\"seed\":1}"));
    ASSERT_EQ(resp.find("status")->asString(), "ok");
    EXPECT_EQ(resp.find("objective")->asString(), "mc_reliability");
    EXPECT_EQ(resp.find("placement")->asString(),
              msc::serve::placementSpec(direct.placement));
    EXPECT_DOUBLE_EQ(resp.find("value")->asNumber(), direct.sigmaHat);
    EXPECT_EQ(resp.find("worlds")->asNumber(), 512);
    EXPECT_EQ(resp.find("uncertain_pairs")->asNumber(),
              direct.uncertainPairs);
    EXPECT_EQ(static_cast<std::size_t>(resp.find("gain_evals")->asNumber()),
              direct.gainEvaluations);
  }
  {
    const auto direct = msc::mc::sandwich(inst, cands, options, mcOpts);
    const auto resp = json::parse(engine.handleLine(
        "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.3,"
        "\"objective\":\"mc_reliability\",\"algo\":\"sandwich\","
        "\"worlds\":512,\"k\":3,\"threads\":2,\"seed\":1}"));
    ASSERT_EQ(resp.find("status")->asString(), "ok");
    EXPECT_EQ(resp.find("placement")->asString(),
              msc::serve::placementSpec(direct.placement));
    EXPECT_DOUBLE_EQ(resp.find("value")->asNumber(), direct.sigmaHat);
    EXPECT_EQ(resp.find("winner")->asString(), direct.winner);
  }
  // Default objective stays the surrogate and rejects unknown names.
  {
    const auto resp = json::parse(engine.handleLine(
        "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.3,"
        "\"k\":2}"));
    ASSERT_EQ(resp.find("status")->asString(), "ok");
    EXPECT_EQ(resp.find("objective")->asString(), "sigma");
    EXPECT_EQ(resp.find("worlds"), nullptr);
  }
  {
    const auto resp = json::parse(engine.handleLine(
        "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.3,"
        "\"objective\":\"quantum\",\"k\":2}"));
    EXPECT_EQ(resp.find("status")->asString(), "error");
  }
  {
    const auto resp = json::parse(engine.handleLine(
        "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.3,"
        "\"objective\":\"mc_reliability\",\"algo\":\"ea\",\"k\":2}"));
    EXPECT_EQ(resp.find("status")->asString(), "error");
  }
}

// ----------------------------------------------------------- edge cases ---

TEST(Reliability, MismatchedWorldSetGraphThrows) {
  const Graph g = diamondGraph();
  const auto inst =
      Instance::fromFailureThreshold(g, {{0, 3}}, 0.4);
  const Graph other = msc::test::lineGraph(7);
  const WorldSet ws(other, {.worlds = 64, .seed = 1});
  EXPECT_THROW(ReliabilityEvaluator(inst, ws), std::invalid_argument);
}

TEST(Reliability, DirectShortcutMaintainsPairInAllWorlds) {
  const Graph g = msc::test::lineGraph(6, 2.0);  // long links, low survival
  const auto inst = Instance::fromFailureThreshold(g, {{0, 5}}, 0.1);
  const WorldSet ws(g, {.worlds = 128, .seed = 1});
  ReliabilityEvaluator eval(inst, ws);
  EXPECT_EQ(eval.maintainedCount(), 0);
  eval.add(Shortcut::make(0, 5));
  EXPECT_EQ(eval.maintainedCount(), 1);
  EXPECT_EQ(eval.reachedWorlds(0), 128u);
  const auto est = eval.pairEstimates();
  EXPECT_DOUBLE_EQ(est[0].reliability, 1.0);
  EXPECT_DOUBLE_EQ(est[0].halfWidth, 0.0);
  EXPECT_FALSE(est[0].uncertain);
}

}  // namespace
