// Fig 5 — dynamic networks (paper §VII-E): one placement serves a series
// of T topologies sampled from a tactical group-mobility trace (RPGM
// substitute for the ARL traces), objective = total maintained connections
// across instances.
//
//   (a) total maintained connections vs budget k for several p_t
//       (n = 50, m = 30 per instance, T = 30)
//   (b) total maintained connections vs T for several k (p_t = 0.12)
//
// Expected shape: totals increase with k, p_t and T; AEA >= AA >> EA; the
// per-instance average decreases as T grows (same budget, more pairs).
#include <iostream>
#include <vector>

#include "core/aea.h"
#include "core/candidates.h"
#include "core/dynamic.h"
#include "core/ea.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "util/env.h"
#include "util/table.h"

namespace {

msc::core::DynamicProblem makeProblem(int timeInstances, double pt,
                                      std::uint64_t seed,
                                      const msc::core::CandidateSet& cands) {
  msc::eval::DynamicSetup setup;
  setup.nodes = 50;
  setup.pairsPerInstance = 30;
  setup.timeInstances = timeInstances;
  setup.failureThreshold = pt;
  setup.seed = seed;
  return msc::core::DynamicProblem(msc::eval::makeDynamicInstances(setup),
                                   cands);
}

struct AlgoValues {
  double aa = 0.0;
  double ea = 0.0;
  double aea = 0.0;
};

AlgoValues runAll(msc::core::DynamicProblem& problem,
                  const msc::core::CandidateSet& cands, int k, int iterations,
                  std::uint64_t seed) {
  AlgoValues out;
  out.aa = problem.sandwich(cands, {.k = k}).sigma;

  msc::core::EaConfig eaCfg;
  eaCfg.iterations = iterations;
  out.ea = msc::core::evolutionaryAlgorithm(problem.sigmaFn(), cands, {.k = k, .seed = seed}, eaCfg)
               .value;

  msc::core::AeaConfig aeaCfg;
  aeaCfg.iterations = iterations;
  aeaCfg.populationSize = 10;
  aeaCfg.delta = 0.05;
  out.aea = msc::core::adaptiveEvolutionaryAlgorithm(
                problem.sigma(), cands, {.k = k, .seed = seed}, aeaCfg)
                .value;
  return out;
}

}  // namespace

int main() {
  using namespace msc;
  eval::printHeader(std::cout, "Fig 5: dynamic networks (RPGM trace)",
                    "ICDCS'19 Fig. 5(a)/(b)");
  const int iterations = util::scaledIters(
      static_cast<int>(util::envInt("MSC_EA_ITERS", 500)));
  const auto seed = static_cast<std::uint64_t>(util::envInt("MSC_SEED", 11));
  std::cout << "EA/AEA iterations r = " << iterations
            << " (paper: 500); n=50, m=30/instance\n";

  const auto cands = core::CandidateSet::allPairs(50);

  // ---- (a): vs k, several p_t, T = 30 -------------------------------
  {
    std::cout << "\n=== Fig 5(a): total maintained connections vs k (T=30) "
                 "===\n";
    util::TableWriter table(
        {"p_t", "k", "AA", "EA", "AEA", "total pairs"});
    for (const double pt : {0.10, 0.11, 0.12}) {
      auto problem = makeProblem(30, pt, seed, cands);
      for (const int k : {5, 10, 15, 20}) {
        const auto v = runAll(problem, cands, k, iterations,
                              seed + static_cast<std::uint64_t>(k));
        table.addRow({util::formatFixed(pt, 2), std::to_string(k),
                      util::formatFixed(v.aa, 0), util::formatFixed(v.ea, 0),
                      util::formatFixed(v.aea, 0),
                      std::to_string(problem.totalPairCount())});
        std::cerr << "  [fig5a] p_t=" << pt << " k=" << k << " done\n";
      }
    }
    table.print(std::cout);
  }

  // ---- (b): vs T, several k, p_t = 0.12 -----------------------------
  {
    std::cout << "\n=== Fig 5(b): total maintained connections vs T "
                 "(p_t=0.12) ===\n";
    util::TableWriter table({"T", "k", "AA", "EA", "AEA", "total pairs",
                             "AA avg/instance"});
    for (const int timeInstances : {5, 10, 15, 20, 25, 30}) {
      auto problem = makeProblem(timeInstances, 0.12, seed, cands);
      for (const int k : {5, 10, 15, 20}) {
        const auto v = runAll(problem, cands, k, iterations,
                              seed + static_cast<std::uint64_t>(17 * k));
        table.addRow(
            {std::to_string(timeInstances), std::to_string(k),
             util::formatFixed(v.aa, 0), util::formatFixed(v.ea, 0),
             util::formatFixed(v.aea, 0),
             std::to_string(problem.totalPairCount()),
             util::formatFixed(v.aa / timeInstances, 2)});
        std::cerr << "  [fig5b] T=" << timeInstances << " k=" << k
                  << " done\n";
      }
    }
    table.print(std::cout);
  }

  std::cout << "\nexpected shape: totals grow with k, p_t, T; AEA >= AA >> "
               "EA; AA avg/instance decreases as T grows\n";
  return 0;
}
