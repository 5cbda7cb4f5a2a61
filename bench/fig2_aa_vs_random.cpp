// Fig 2 — maintained social connections: Approximation Algorithm vs the
// best-of-500 random-selection baseline, as a function of the shortcut
// budget k, on both datasets (paper §VII-C).
//
// Expected shape: AA >= random everywhere, with the gap widening as k
// grows (informed placement compounds; random placement wastes edges).
#include <iostream>
#include <vector>

#include "core/candidates.h"
#include "core/random_baseline.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "util/env.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

void runDataset(const std::string& dataset,
                const std::vector<double>& thresholds,
                const std::vector<int>& budgets, int trials,
                std::uint64_t baseSeed) {
  std::cout << "\n=== dataset: " << dataset << " ===\n";
  msc::util::TableWriter table(
      {"p_t", "k", "AA", "Random(best)", "Random(mean)", "m"});
  for (const double pt : thresholds) {
    for (const int k : budgets) {
      msc::util::RunningStats aaStat, rndBestStat, rndMeanStat;
      int m = 0;
      for (int trial = 0; trial < trials; ++trial) {
        const std::uint64_t seed = baseSeed + 100 * trial;
        msc::eval::SpatialInstance spatial = [&] {
          if (dataset == "RG") {
            msc::eval::RgSetup setup;
            setup.nodes = 100;
            setup.pairs = 40;
            setup.failureThreshold = pt;
            setup.seed = seed;
            return msc::eval::makeRgInstance(setup);
          }
          msc::eval::GowallaSetup setup;
          setup.pairs = 40;
          setup.failureThreshold = pt;
          setup.seed = seed;
          return msc::eval::makeGowallaInstance(setup);
        }();
        const auto& inst = spatial.instance;
        m = inst.pairCount();
        const auto cands =
            msc::core::CandidateSet::allPairs(inst.graph().nodeCount());

        const auto aa = msc::core::sandwichApproximation(inst, cands, {.k = k});
        aaStat.push(aa.sigma);

        msc::core::SigmaEvaluator sigma(inst);
        msc::core::RandomBaselineConfig rndCfg;
        rndCfg.repeats = msc::util::scaledIters(500);
        const auto rnd = msc::core::randomBaseline(
            sigma, cands, {.k = k, .seed = seed ^ 0xa0a0ULL}, rndCfg);
        rndBestStat.push(rnd.value);
        rndMeanStat.push(rnd.meanValue);
      }
      table.addRow({msc::util::formatFixed(pt, 2), std::to_string(k),
                    msc::util::formatPlusMinus(aaStat.mean(),
                                               aaStat.ci95HalfWidth(), 1),
                    msc::util::formatPlusMinus(rndBestStat.mean(),
                                               rndBestStat.ci95HalfWidth(), 1),
                    msc::util::formatFixed(rndMeanStat.mean(), 1),
                    std::to_string(m)});
    }
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  using namespace msc;
  eval::printHeader(std::cout,
                    "Fig 2: AA vs random selection (maintained connections)",
                    "ICDCS'19 Fig. 2");
  const int trials = util::scaledIters(
      static_cast<int>(util::envInt("MSC_TRIALS", 3)));
  std::cout << "trials per cell: " << trials << '\n';

  runDataset("RG", {0.08, 0.14}, {2, 4, 6, 8, 10}, trials, 1);
  runDataset("Gowalla", {0.23, 0.31}, {2, 4, 6, 8, 10}, trials, 9);

  std::cout << "\nexpected shape: AA >= Random(best) everywhere; both grow "
               "with k and p_t; gap widens with k\n";
  return 0;
}
