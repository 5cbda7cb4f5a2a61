// Microbenchmarks (google-benchmark) for the evaluation hot paths:
// sigma strategies (matrix vs overlay vs rebuild), the zero-edge
// relaxation, per-candidate marginal gains, APSP, and one greedy round.
// These back DESIGN.md's "evaluator strategy" ablation: which exact sigma
// strategy wins at which (n, m, |F|) regime.
#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "core/bounds.h"
#include "core/candidates.h"
#include "core/greedy.h"
#include "core/sigma.h"
#include "eval/experiment.h"
#include "graph/apsp.h"
#include "graph/distance_oracle.h"
#include "graph/shortcut_distance.h"
#include "harness.h"
#include "obs/metrics.h"
#include "util/env.h"
#include "util/rng.h"

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

// Shared graph + eager (dense-mode) oracle: every row resident, so point
// queries are cached-row lookups.
std::shared_ptr<const msc::graph::DistanceOracle> eagerOracle(
    const msc::graph::Graph& g) {
  return msc::graph::makeDistanceOracle(
      std::make_shared<const msc::graph::Graph>(g),
      msc::graph::DistanceMode::Dense, /*landmarks=*/0, /*threads=*/1);
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

// Point-query cost of the oracle in its two modes on the same graph: the
// all-rows (dense) lookup is the floor, the lazy ALT/cached-row query is
// what replaces it past the auto threshold. Queries cycle through a fixed
// endpoint sample so the lazy row cache behaves as it does mid-solve (hot
// rows for repeated sources).
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
  const msc::graph::PairCentricOracle oracle(
      graph, msc::graph::PairCentricOracle::Config{8, 1});
  const int n = graph->nodeCount();
  int x = 0;
  for (auto _ : state) {
    x = (x + 17) % n;
    benchmark::DoNotOptimize(oracle.distance(x, (x * 31 + 7) % n));
  }
}
BENCHMARK(BM_OracleQuery)->Arg(100)->Arg(150);

void BM_SigmaByRows(benchmark::State& state) {
  const auto spatial = makeRg(100, static_cast<int>(state.range(0)));
  SigmaEvaluator eval(spatial.instance);
  const auto f = somePlacement(100, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.valueByRows(f));
  }
}
BENCHMARK(BM_SigmaByRows)
    ->Args({17, 4})
    ->Args({80, 4})
    ->Args({80, 10});

void BM_SigmaByOverlay(benchmark::State& state) {
  const auto spatial = makeRg(100, static_cast<int>(state.range(0)));
  SigmaEvaluator eval(spatial.instance);
  const auto f = somePlacement(100, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.valueByOverlay(f));
  }
}
BENCHMARK(BM_SigmaByOverlay)
    ->Args({17, 4})
    ->Args({80, 4})
    ->Args({80, 10});

void BM_SigmaByRebuild(benchmark::State& state) {
  const auto spatial = makeRg(100, static_cast<int>(state.range(0)));
  SigmaEvaluator eval(spatial.instance);
  const auto f = somePlacement(100, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.valueByRebuild(f));
  }
}
BENCHMARK(BM_SigmaByRebuild)->Args({17, 4})->Args({80, 4});

void BM_SigmaGainScan(benchmark::State& state) {
  // One full greedy-round scan over all candidates.
  const auto spatial = makeRg(100, 80);
  SigmaEvaluator eval(spatial.instance);
  const auto cands = CandidateSet::allPairs(100);
  eval.reset();
  for (auto _ : state) {
    double best = 0.0;
    for (std::size_t c = 0; c < cands.size(); ++c) {
      best = std::max(best, eval.gainIfAdd(cands[c]));
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_SigmaGainScan);

void BM_MuConstruction(benchmark::State& state) {
  const auto spatial = makeRg(100, 80);
  const auto cands = CandidateSet::allPairs(100);
  for (auto _ : state) {
    msc::core::MuEvaluator mu(spatial.instance, cands);
    benchmark::DoNotOptimize(mu.value({}));
  }
}
BENCHMARK(BM_MuConstruction);

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

// Instrumentation overhead check: the same greedy run with the metrics
// registry force-enabled (range(1) == 1) vs force-disabled (range(1) == 0).
// The acceptance bar is: disabled instrumentation stays within 2% of the
// pre-instrumentation baseline, i.e. BM_GreedyInstrumented/4/0 tracks
// BM_GreedyFullRun/4.
void BM_GreedyInstrumented(benchmark::State& state) {
  const auto spatial = makeRg(100, 80);
  const auto cands = CandidateSet::allPairs(100);
  const bool wasEnabled = msc::obs::enabled();
  msc::obs::setEnabled(state.range(1) != 0);
  for (auto _ : state) {
    SigmaEvaluator eval(spatial.instance);
    benchmark::DoNotOptimize(msc::core::greedyMaximize(
        eval, cands,
        msc::core::SolveOptions{.k = static_cast<int>(state.range(0))}));
  }
  msc::obs::setEnabled(wasEnabled);
  msc::obs::resetAll();
}
BENCHMARK(BM_GreedyInstrumented)->Args({4, 0})->Args({4, 1});

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

// ------------------------------------------------ regression harness ----
// A small harness-backed suite alongside the google-benchmark cases: the
// same hot paths, timed as warmup+repeats and exported to
// out/BENCH_micro_core.json for tools/bench_diff.py to compare across
// commits (CI perf-smoke job). Skippable with MSC_BENCH_JSON=0.

void runRegressionHarness() {
  if (!msc::util::envBool("MSC_BENCH_JSON", true)) return;
  msc::bench::Harness harness("micro_core");

  {
    const auto spatial = makeRg(150, 10);
    harness.run("apsp_n150", [&] {
      benchmark::DoNotOptimize(
          msc::graph::allPairsDistances(spatial.instance.graph()));
    });
  }
  {
    // Point-query cost of the oracle's two modes, gated by bench_diff.py
    // like every other harness case (CI perf-smoke self-diff).
    const auto spatial = makeRg(150, 10);
    const auto dense = eagerOracle(spatial.instance.graph());
    const auto graph =
        std::make_shared<const msc::graph::Graph>(spatial.instance.graph());
    const msc::graph::PairCentricOracle pc(
        graph, msc::graph::PairCentricOracle::Config{8, 1});
    const int n = graph->nodeCount();
    harness.run("matrix_lookup", [&] {
      double sum = 0.0;
      for (int x = 0; x < n; x += 7) {
        sum += dense->distance(x, (x * 31 + 7) % n);
      }
      benchmark::DoNotOptimize(sum);
    });
    harness.run("oracle_query", [&] {
      double sum = 0.0;
      for (int x = 0; x < n; x += 7) {
        sum += pc.distance(x, (x * 31 + 7) % n);
      }
      benchmark::DoNotOptimize(sum);
    });
  }
  {
    const auto spatial = makeRg(100, 80);
    const auto cands = CandidateSet::allPairs(100);
    harness.run("greedy_k4", [&] {
      SigmaEvaluator eval(spatial.instance);
      benchmark::DoNotOptimize(msc::core::greedyMaximize(
          eval, cands, msc::core::SolveOptions{.k = 4}));
    });
    harness.run("sigma_gain_scan", [&] {
      SigmaEvaluator eval(spatial.instance);
      eval.reset();
      double best = 0.0;
      for (std::size_t c = 0; c < cands.size(); ++c) {
        best = std::max(best, eval.gainIfAdd(cands[c]));
      }
      benchmark::DoNotOptimize(best);
    });
  }

  std::cout << "bench json: " << harness.writeJson() << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  runRegressionHarness();
  return 0;
}
