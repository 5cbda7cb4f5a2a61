// Ablation — AEA hyper-parameters (DESIGN.md §4): sensitivity of AEA to
// the exploration probability delta and the population size l. The paper
// fixes delta = 0.05, l = 10; this bench shows how performance degrades at
// the extremes (pure greedy swaps delta=0 get stuck; pure random delta=1
// wastes iterations; l=1 loses diversity).
#include <iostream>
#include <vector>

#include "core/aea.h"
#include "core/candidates.h"
#include "core/sigma.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "util/env.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace msc;
  eval::printHeader(std::cout, "Ablation: AEA delta / population size",
                    "DESIGN.md ablation index");
  const int iterations = util::scaledIters(
      static_cast<int>(util::envInt("MSC_EA_ITERS", 300)));
  const int trials =
      util::scaledIters(static_cast<int>(util::envInt("MSC_TRIALS", 5)));
  const int k = 6;
  std::cout << "RG n=100 m=60 p_t=0.14, k=" << k << ", r=" << iterations
            << ", trials=" << trials << '\n';

  auto makeInstance = [&](std::uint64_t seed) {
    eval::RgSetup setup;
    setup.nodes = 100;
    setup.pairs = 60;
    setup.failureThreshold = 0.14;
    setup.seed = seed;
    return eval::makeRgInstance(setup);
  };

  {
    std::cout << "\n--- delta sweep (l = 10) ---\n";
    util::TableWriter table({"delta", "AEA mean", "ci95"});
    for (const double delta : {0.0, 0.05, 0.2, 0.5, 1.0}) {
      util::RunningStats stat;
      for (int trial = 0; trial < trials; ++trial) {
        const auto spatial = makeInstance(static_cast<std::uint64_t>(trial + 1));
        const auto cands = core::CandidateSet::allPairs(
            spatial.instance.graph().nodeCount());
        core::SigmaEvaluator sigma(spatial.instance);
        core::AeaConfig cfg;
        cfg.iterations = iterations;
        cfg.populationSize = 10;
        cfg.delta = delta;
        const core::SolveOptions options{
            .k = k, .seed = static_cast<std::uint64_t>(trial + 1)};
        stat.push(
            core::adaptiveEvolutionaryAlgorithm(sigma, cands, options, cfg)
                .value);
      }
      table.addRow({util::formatFixed(delta, 2),
                    util::formatFixed(stat.mean(), 2),
                    util::formatFixed(stat.ci95HalfWidth(), 2)});
    }
    table.print(std::cout);
  }

  {
    std::cout << "\n--- population-size sweep (delta = 0.05) ---\n";
    util::TableWriter table({"l", "AEA mean", "ci95"});
    for (const int l : {1, 5, 10, 20}) {
      util::RunningStats stat;
      for (int trial = 0; trial < trials; ++trial) {
        const auto spatial = makeInstance(static_cast<std::uint64_t>(trial + 1));
        const auto cands = core::CandidateSet::allPairs(
            spatial.instance.graph().nodeCount());
        core::SigmaEvaluator sigma(spatial.instance);
        core::AeaConfig cfg;
        cfg.iterations = iterations;
        cfg.populationSize = l;
        cfg.delta = 0.05;
        const core::SolveOptions options{
            .k = k, .seed = static_cast<std::uint64_t>(trial + 1)};
        stat.push(
            core::adaptiveEvolutionaryAlgorithm(sigma, cands, options, cfg)
                .value);
      }
      table.addRow({std::to_string(l), util::formatFixed(stat.mean(), 2),
                    util::formatFixed(stat.ci95HalfWidth(), 2)});
    }
    table.print(std::cout);
  }

  std::cout << "\nreading: small positive delta beats both extremes; "
               "moderate l beats l=1 (diversity) without diluting the "
               "iteration budget.\n";
  return 0;
}
