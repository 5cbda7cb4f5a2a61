// Microbenchmarks (google-benchmark) for the evaluation hot paths:
// whole-placement sigma (the terminal overlay), the zero-edge relaxation,
// bulk gain scans, APSP, the oracle's row build and point query, a cold
// Instance, one greedy round, a dense sandwich, and the Monte-Carlo
// evaluator's gain probe and reset.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/bounds.h"
#include "core/candidates.h"
#include "core/greedy.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "eval/experiment.h"
#include "gen/gowalla.h"
#include "gen/random_geometric.h"
#include "graph/apsp.h"
#include "graph/dijkstra.h"
#include "graph/distance_oracle.h"
#include "graph/shortcut_distance.h"
#include "mc/reliability.h"
#include "mc/world_sampler.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "wireless/link_model.h"

namespace {

using msc::core::CandidateSet;
using msc::core::Instance;
using msc::core::Shortcut;
using msc::core::ShortcutList;
using msc::core::SigmaEvaluator;

msc::eval::SpatialInstance makeRg(int n, int m) {
  msc::eval::RgSetup setup;
  setup.nodes = n;
  setup.radius = n >= 100 ? 0.15 : 0.25;
  setup.pairs = m;
  setup.failureThreshold = 0.14;
  setup.seed = 1;
  return msc::eval::makeRgInstance(setup);
}

// Scan-sized instances: (100, 80) is the historical case; (512, 100) is
// the perfbench dense_solve shape (RG n = 512, r = 0.109, p_t = 0.05,
// 100 violating pairs, the perfbench failure slope).
msc::eval::SpatialInstance makeScanRg(int n, int m) {
  if (n != 512) return makeRg(n, m);
  msc::eval::RgSetup setup;
  setup.nodes = n;
  setup.radius = 0.109;
  setup.failureSlope = 0.35;
  setup.pairs = m;
  setup.failureThreshold = 0.05;
  setup.seed = 1;
  return msc::eval::makeRgInstance(setup);
}

ShortcutList somePlacement(int n, int size) {
  msc::util::Rng rng(99);
  ShortcutList f;
  while (static_cast<int>(f.size()) < size) {
    const auto a = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    const auto b = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    if (a == b) continue;
    const auto s = Shortcut::make(a, b);
    if (!msc::core::contains(f, s)) f.push_back(s);
  }
  return f;
}

void BM_Apsp(benchmark::State& state) {
  const auto spatial = makeRg(static_cast<int>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        msc::graph::allPairsDistances(spatial.instance.graph()));
  }
}
BENCHMARK(BM_Apsp)->Arg(50)->Arg(100)->Arg(150);

// Shared graph + an oracle whose every full row materialize() has built
// and cached, so point queries are cached-row lookups.
std::shared_ptr<const msc::graph::DistanceOracle> eagerOracle(
    const msc::graph::Graph& g) {
  auto oracle = std::make_shared<const msc::graph::PairCentricOracle>(
      std::make_shared<const msc::graph::Graph>(g),
      msc::graph::PairCentricOracle::Config{.threads = 1});
  (void)oracle->materialize();
  return oracle;
}

void BM_ApplyZeroEdge(benchmark::State& state) {
  const auto spatial = makeRg(static_cast<int>(state.range(0)), 10);
  const auto oracle = eagerOracle(spatial.instance.graph());
  const auto& base = oracle->materialize();
  for (auto _ : state) {
    auto d = base;
    msc::graph::applyZeroEdge(d, 0, spatial.instance.graph().nodeCount() - 1);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_ApplyZeroEdge)->Arg(50)->Arg(100)->Arg(150);

// Point-query cost of the oracle with every row cached and with no row
// cached, on the same graph: the cached-row lookup is the floor, the
// early-exit Dijkstra of a miss is what baseDistance pays beyond d_t.
// Queries cycle through a fixed endpoint sample.
void BM_MatrixLookup(benchmark::State& state) {
  const auto spatial = makeRg(static_cast<int>(state.range(0)), 10);
  const auto oracle = eagerOracle(spatial.instance.graph());
  const int n = spatial.instance.graph().nodeCount();
  int x = 0;
  for (auto _ : state) {
    x = (x + 17) % n;
    benchmark::DoNotOptimize(oracle->distance(x, (x * 31 + 7) % n));
  }
}
BENCHMARK(BM_MatrixLookup)->Arg(100)->Arg(150);

void BM_OracleQuery(benchmark::State& state) {
  const auto spatial = makeRg(static_cast<int>(state.range(0)), 10);
  const auto graph =
      std::make_shared<const msc::graph::Graph>(spatial.instance.graph());
  const msc::graph::PairCentricOracle oracle(graph);
  const int n = graph->nodeCount();
  int x = 0;
  for (auto _ : state) {
    x = (x + 17) % n;
    benchmark::DoNotOptimize(oracle.distance(x, (x * 31 + 7) % n));
  }
}
BENCHMARK(BM_OracleQuery)->Arg(100)->Arg(150);

// One oracle row build: the d_t-bounded Dijkstra that
// PairCentricOracle::buildRows runs per pair node, on the perfbench
// pair_churn shape (RG n = 10^4, r = 0.0226, p_t = 0.14, 100 violating
// pairs). Iterations cycle through the 200 pair nodes; the time is per
// row and `arc` the time per relaxed arc (every arc of every node the
// row settles).
struct RowBuildSetup {
  msc::graph::Graph graph;
  double radius = 0.0;
  std::vector<msc::graph::NodeId> sources;
  std::vector<double> arcs;  // relaxed arcs of each source's row
};

const RowBuildSetup& rowBuildSetup() {
  static const RowBuildSetup setup = [] {
    msc::gen::RandomGeometricConfig cfg;
    cfg.nodes = 10000;
    cfg.radius = 0.0226;
    cfg.seed = 1;
    const msc::gen::SpatialNetwork net = msc::gen::randomGeometric(cfg);
    RowBuildSetup s;
    s.graph = net.graph;
    s.radius = msc::wireless::failureThresholdToDistance(0.14);
    // Violating pairs without shortest-path work: every link is at least
    // 0.35 x its Euclidean length long, so endpoints farther apart than
    // d_t / 0.35 can never meet d_t.
    msc::util::Rng rng(7);
    const auto n = static_cast<std::uint64_t>(cfg.nodes);
    while (s.sources.size() < 200) {
      const auto u = static_cast<msc::graph::NodeId>(rng.below(n));
      const auto w = static_cast<msc::graph::NodeId>(rng.below(n));
      if (u == w || msc::gen::euclidean(
                        net.positions[static_cast<std::size_t>(u)],
                        net.positions[static_cast<std::size_t>(w)]) <=
                        s.radius / 0.35) {
        continue;
      }
      s.sources.push_back(u);
      s.sources.push_back(w);
    }
    for (const msc::graph::NodeId v : s.sources) {
      const auto row =
          msc::graph::dijkstraBoundedDistances(s.graph, v, s.radius);
      double arcs = 0.0;
      for (std::size_t x = 0; x < row.size(); ++x) {
        if (row[x] <= s.radius) {
          arcs += s.graph.degree(static_cast<msc::graph::NodeId>(x));
        }
      }
      s.arcs.push_back(arcs);
    }
    return s;
  }();
  return setup;
}

void BM_RowBuild(benchmark::State& state) {
  const RowBuildSetup& s = rowBuildSetup();
  std::size_t i = 0;
  double arcs = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        msc::graph::dijkstraBoundedDistances(s.graph, s.sources[i], s.radius));
    arcs += s.arcs[i];
    i = (i + 1) % s.sources.size();
  }
  state.counters["arc"] = benchmark::Counter(
      arcs, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RowBuild)->Unit(benchmark::kMicrosecond);

// Whole-placement sigma(F) at (n, pairs, |F|); (512, 100, 5) is the
// perfbench dense_solve shape.
void BM_SigmaValue(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spatial = makeScanRg(n, static_cast<int>(state.range(1)));
  const SigmaEvaluator eval(spatial.instance);
  const auto f = somePlacement(n, static_cast<int>(state.range(2)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.value(f));
  }
}
BENCHMARK(BM_SigmaValue)
    ->Args({100, 17, 4})
    ->Args({100, 80, 4})
    ->Args({100, 80, 10})
    ->Args({512, 100, 5});

// One full greedy-round scan over all candidates: the bulk scanGains that
// gainScan calls.
void BM_SigmaGainScan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spatial = makeScanRg(n, static_cast<int>(state.range(1)));
  SigmaEvaluator eval(spatial.instance);
  const auto cands = CandidateSet::allPairs(n);
  std::vector<double> gains(cands.size());
  eval.reset();
  for (auto _ : state) {
    eval.scanGains(cands, gains, 1, {});
    benchmark::DoNotOptimize(gains.data());
    benchmark::ClobberMemory();
  }
  state.counters["probes"] = static_cast<double>(cands.size());
}
BENCHMARK(BM_SigmaGainScan)->Args({100, 80})->Args({512, 100});

// One ν greedy round scan: every candidate's upper-bound gain, here from
// the empty placement.
void BM_NuGainScan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spatial = makeScanRg(n, static_cast<int>(state.range(1)));
  msc::core::NuEvaluator eval(spatial.instance);
  const auto cands = CandidateSet::allPairs(n);
  std::vector<double> gains(cands.size());
  eval.reset();
  for (auto _ : state) {
    eval.scanGains(cands, gains, 1, {});
    benchmark::DoNotOptimize(gains.data());
    benchmark::ClobberMemory();
  }
  state.counters["probes"] = static_cast<double>(cands.size());
}
BENCHMARK(BM_NuGainScan)->Args({512, 100});

// One whole sandwich (μ construction, the three greedy passes, scoring)
// at k = 5 on one thread: the served dense_solve sandwich request.
void BM_SandwichDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spatial = makeScanRg(n, static_cast<int>(state.range(1)));
  const auto cands = CandidateSet::allPairs(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(msc::core::sandwichApproximation(
        spatial.instance, cands, msc::core::SolveOptions{.k = 5}));
  }
}
BENCHMARK(BM_SandwichDense)->Args({512, 100})->Unit(benchmark::kMillisecond);

// A cold Instance as a first solve on a fresh graph builds it: an empty
// oracle and the d_t-bounded pair-node row prefetch, at the perfbench
// dense_solve shape.
void BM_InstanceCold(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spatial = makeScanRg(n, static_cast<int>(state.range(1)));
  const auto graph =
      std::make_shared<const msc::graph::Graph>(spatial.instance.graph());
  for (auto _ : state) {
    const Instance inst(
        graph, std::make_shared<const msc::graph::PairCentricOracle>(graph),
        spatial.instance.pairs(), spatial.instance.distanceThreshold());
    benchmark::DoNotOptimize(inst.baseRow(inst.pairNodes().front()).data());
  }
}
BENCHMARK(BM_InstanceCold)->Args({512, 100})->Unit(benchmark::kMillisecond);

void BM_MuConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto spatial = makeScanRg(n, static_cast<int>(state.range(1)));
  const auto cands = CandidateSet::allPairs(n);
  for (auto _ : state) {
    msc::core::MuEvaluator mu(spatial.instance, cands);
    benchmark::DoNotOptimize(mu.value({}));
  }
}
BENCHMARK(BM_MuConstruction)->Args({100, 80})->Args({512, 100});

void BM_GreedyFullRun(benchmark::State& state) {
  const auto spatial = makeRg(100, 80);
  const auto cands = CandidateSet::allPairs(100);
  for (auto _ : state) {
    SigmaEvaluator eval(spatial.instance);
    benchmark::DoNotOptimize(msc::core::greedyMaximize(
        eval, cands,
        msc::core::SolveOptions{.k = static_cast<int>(state.range(0))}));
  }
}
BENCHMARK(BM_GreedyFullRun)->Arg(4)->Arg(10);

// Instrumentation overhead check: the same greedy run with a RequestContext
// bound around it, as serve binds one around each request, so the request
// phases and oracle usage are charged too. Library telemetry records in
// both cases; the acceptance bar is that BM_GreedyInstrumented/4 stays
// within noise of BM_GreedyFullRun/4.
void BM_GreedyInstrumented(benchmark::State& state) {
  const auto spatial = makeRg(100, 80);
  const auto cands = CandidateSet::allPairs(100);
  for (auto _ : state) {
    msc::obs::RequestContext ctx("bench");
    const msc::obs::ScopedRequestBind bind(&ctx);
    SigmaEvaluator eval(spatial.instance);
    benchmark::DoNotOptimize(msc::core::greedyMaximize(
        eval, cands,
        msc::core::SolveOptions{.k = static_cast<int>(state.range(0))}));
  }
}
BENCHMARK(BM_GreedyInstrumented)->Arg(4);

// ------------------------------------------------------- Monte-Carlo ----
// The perfbench mc_solve shape: the fixed 60-user Gowalla-like network,
// 8 important pairs at p_t = 0.23, W = 256 sampled worlds.

const Instance& mcInstance() {
  static const Instance inst = [] {
    msc::gen::GowallaConfig cfg;
    cfg.users = 60;
    msc::graph::Graph g = msc::gen::gowallaLike(cfg).graph;
    const double dt = msc::wireless::failureThresholdToDistance(0.23);
    msc::util::Rng rng(1);
    auto pairs = msc::core::sampleImportantPairs(
        g, msc::graph::allPairsDistances(g), 8, dt, rng);
    return Instance(std::move(g), std::move(pairs), dt);
  }();
  return inst;
}

const msc::mc::WorldSet& mcWorlds() {
  static const msc::mc::WorldSet worlds(mcInstance().graph(),
                                        {.worlds = 256, .seed = 1});
  return worlds;
}

// One closed-form gain probe per iteration, cycling over every candidate
// from the empty placement (a greedy round's first scan).
void BM_McGainIfAdd(benchmark::State& state) {
  const msc::mc::ReliabilityEvaluator eval(mcInstance(), mcWorlds());
  const auto cands = CandidateSet::allPairs(mcInstance().graph().nodeCount());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.gainIfAdd(cands[i]));
    if (++i == cands.size()) i = 0;
  }
}
BENCHMARK(BM_McGainIfAdd);

// reset(): one BFS fixpoint over all W worlds per pair endpoint.
void BM_McReset(benchmark::State& state) {
  msc::mc::ReliabilityEvaluator eval(mcInstance(), mcWorlds());
  for (auto _ : state) {
    eval.reset();
    benchmark::DoNotOptimize(eval.currentValue());
  }
}
BENCHMARK(BM_McReset);

// --------------------------------------------------- parallel scaling ----
// The acceptance bar for the parallel layer (ALGORITHMS.md §10): >= 2x on
// APSP and on a greedy gain-scan round at 8 threads on n >= 2000 RG graphs
// (needs an 8-core machine; on fewer cores the 8-thread rows oversubscribe
// and only show whatever parallelism the hardware has). Compare the
// threads=1 and threads=8 rows of each benchmark.

const Instance& bigRgInstance() {
  // n = 2000, radius 0.05, 200 pairs — built once and shared across
  // benchmark registrations (construction itself runs a full APSP).
  static const msc::eval::SpatialInstance spatial = [] {
    msc::eval::RgSetup setup;
    setup.nodes = 2000;
    setup.radius = 0.05;
    setup.pairs = 200;
    setup.failureThreshold = 0.14;
    setup.seed = 1;
    return msc::eval::makeRgInstance(setup);
  }();
  return spatial.instance;
}

void BM_ApspParallel(benchmark::State& state) {
  const auto& inst = bigRgInstance();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        msc::graph::allPairsDistances(inst.graph(), threads));
  }
}
BENCHMARK(BM_ApspParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_GreedyGainScanParallel(benchmark::State& state) {
  // One greedy round (k = 1) == one full candidate gain scan plus one add;
  // the scan over ~2M candidates dominates.
  const auto& inst = bigRgInstance();
  const auto cands = CandidateSet::allPairs(inst.graph().nodeCount());
  const int threads = static_cast<int>(state.range(0));
  SigmaEvaluator eval(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(msc::core::greedyMaximize(
        eval, cands, msc::core::SolveOptions{.k = 1, .threads = threads}));
  }
}
BENCHMARK(BM_GreedyGainScanParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
