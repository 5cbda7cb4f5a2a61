// Fig 3 — AA vs EA vs AEA: maintained connections vs budget k under
// several thresholds p_t (paper §VII-D).
//
//   (a) RG graph, n = 100, m = 80
//   (b) Gowalla-style network, n = 134, m = 76
// Parameters follow the paper: r = 500 iterations for EA and AEA, AEA
// population l = 10, delta = 0.05.
//
// Expected shape: values increase with k and p_t; AEA >= AA >> EA.
#include <iostream>
#include <vector>

#include "core/aea.h"
#include "core/candidates.h"
#include "core/ea.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "util/env.h"
#include "util/table.h"

namespace {

void runDataset(const std::string& dataset,
                const std::vector<double>& thresholds,
                const std::vector<int>& budgets, int iterations,
                std::uint64_t seed) {
  std::cout << "\n=== Fig 3(" << (dataset == "RG" ? 'a' : 'b')
            << "): " << dataset << " ===\n";
  msc::util::TableWriter table({"p_t", "k", "AA", "EA", "AEA", "m"});
  for (const double pt : thresholds) {
    const msc::eval::SpatialInstance spatial = [&] {
      if (dataset == "RG") {
        msc::eval::RgSetup setup;
        setup.nodes = 100;
        setup.pairs = 80;
        setup.failureThreshold = pt;
        setup.seed = seed;
        return msc::eval::makeRgInstance(setup);
      }
      msc::eval::GowallaSetup setup;
      setup.pairs = 76;
      setup.failureThreshold = pt;
      setup.seed = seed;
      return msc::eval::makeGowallaInstance(setup);
    }();
    const auto& inst = spatial.instance;
    const auto cands =
        msc::core::CandidateSet::allPairs(inst.graph().nodeCount());

    for (const int k : budgets) {
      const auto aa = msc::core::sandwichApproximation(inst, cands, {.k = k});

      msc::core::SigmaEvaluator sigma(inst);
      const msc::core::SolveOptions options{
          .k = k, .seed = seed + static_cast<std::uint64_t>(k)};
      msc::core::EaConfig eaCfg;
      eaCfg.iterations = iterations;
      const auto ea =
          msc::core::evolutionaryAlgorithm(sigma, cands, options, eaCfg);

      msc::core::AeaConfig aeaCfg;
      aeaCfg.iterations = iterations;
      aeaCfg.populationSize = 10;
      aeaCfg.delta = 0.05;
      const auto aea = msc::core::adaptiveEvolutionaryAlgorithm(
          sigma, cands, options, aeaCfg);

      table.addRow({msc::util::formatFixed(pt, 2), std::to_string(k),
                    msc::util::formatFixed(aa.sigma, 0),
                    msc::util::formatFixed(ea.value, 0),
                    msc::util::formatFixed(aea.value, 0),
                    std::to_string(inst.pairCount())});
      std::cerr << "  [fig3 " << dataset << "] p_t=" << pt << " k=" << k
                << " done\n";
    }
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  using namespace msc;
  eval::printHeader(std::cout, "Fig 3: AA vs EA vs AEA",
                    "ICDCS'19 Fig. 3(a)/(b)");
  const int iterations = util::scaledIters(
      static_cast<int>(util::envInt("MSC_EA_ITERS", 500)));
  std::cout << "EA/AEA iterations r = " << iterations
            << " (paper: 500), AEA l=10 delta=0.05\n";

  runDataset("RG", {0.08, 0.11, 0.14}, {2, 4, 6, 8, 10}, iterations, 1);
  runDataset("Gowalla", {0.23, 0.27, 0.31}, {2, 4, 6, 8, 10}, iterations, 9);

  std::cout << "\nexpected shape: connections increase with k and p_t; "
               "AEA >= AA, both clearly above EA\n";
  return 0;
}
