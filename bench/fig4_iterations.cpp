// Fig 4 — maintained connections as a function of the iteration budget r
// for EA and AEA, with the (r-independent) AA value as a reference line
// (paper §VII-D).
//
//   (a) RG, n = 100, m = 80, p_t = 0.14
//   (b) Gowalla-style, n = 134, m = 76, p_t = 0.23
//
// Expected shape: both evolutionary algorithms improve with r; AEA starts
// below AA but overtakes it at large r; EA stays well below both.
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

void runDataset(const std::string& dataset, double pt,
                const std::vector<int>& budgets, int maxIterations,
                std::uint64_t seed) {
  std::cout << "\n=== Fig 4(" << (dataset == "RG" ? 'a' : 'b')
            << "): " << dataset << ", p_t=" << pt << " ===\n";

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
  std::cout << msc::eval::describeInstance(inst) << '\n';
  const auto cands =
      msc::core::CandidateSet::allPairs(inst.graph().nodeCount());

  // Checkpoints along the iteration axis.
  std::vector<int> checkpoints;
  for (int r = maxIterations / 10; r <= maxIterations;
       r += maxIterations / 10) {
    checkpoints.push_back(r);
  }

  for (const int k : budgets) {
    const auto aa = msc::core::sandwichApproximation(inst, cands, {.k = k});

    msc::core::SigmaEvaluator sigma(inst);
    msc::core::EaConfig eaCfg;
    eaCfg.iterations = maxIterations;
    const msc::core::SolveOptions options{
        .k = k, .seed = seed + static_cast<std::uint64_t>(k)};
    const auto ea =
        msc::core::evolutionaryAlgorithm(sigma, cands, options, eaCfg);

    msc::core::AeaConfig aeaCfg;
    aeaCfg.iterations = maxIterations;
    aeaCfg.populationSize = 10;
    aeaCfg.delta = 0.05;
    const auto aea =
        msc::core::adaptiveEvolutionaryAlgorithm(sigma, cands, options, aeaCfg);

    msc::util::TableWriter table({"r", "EA", "AEA", "AA (ref)"});
    for (const int r : checkpoints) {
      table.addRow(
          {std::to_string(r),
           msc::util::formatFixed(
               ea.bestByIteration[static_cast<std::size_t>(r - 1)], 0),
           msc::util::formatFixed(
               aea.bestByIteration[static_cast<std::size_t>(r - 1)], 0),
           msc::util::formatFixed(aa.sigma, 0)});
    }
    std::cout << "\n-- k = " << k << " --\n";
    table.print(std::cout);
    std::cerr << "  [fig4 " << dataset << "] k=" << k << " done\n";
  }
}

}  // namespace

int main() {
  using namespace msc;
  eval::printHeader(std::cout, "Fig 4: EA/AEA value vs iteration budget r",
                    "ICDCS'19 Fig. 4(a)/(b)");
  const int maxIterations = util::scaledIters(
      static_cast<int>(util::envInt("MSC_EA_ITERS", 500)));
  std::cout << "max r = " << maxIterations << " (paper sweeps to 500)\n";

  runDataset("RG", 0.14, {4, 8}, maxIterations, 1);
  runDataset("Gowalla", 0.23, {4, 8}, maxIterations, 9);

  std::cout << "\nexpected shape: EA/AEA nondecreasing in r; AEA crosses "
               "above the AA reference for large r; EA stays below\n";
  return 0;
}
