// Fig 1 — shortcut edge placement picture: Approximation Algorithm vs the
// random-selection baseline on one RG instance (paper §VII-C).
//
// Prints both placements with per-pair satisfied status and exports DOT
// files (out/fig1_aa.dot / out/fig1_random.dot, honouring MSC_OUT_DIR;
// render with `neato -n2 -Tpng`).
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "core/candidates.h"
#include "core/random_baseline.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "graph/graph_io.h"
#include "util/env.h"
#include "util/table.h"

namespace {

void report(const std::string& label, const msc::core::Instance& inst,
            const msc::core::ShortcutList& placement,
            const std::vector<msc::gen::Point>& positions,
            const std::string& dotPath) {
  msc::core::SigmaEvaluator sigma(inst);
  sigma.evaluate(placement);
  // Full-radius overlay: the distance column is exact above d_t too.
  const msc::graph::OverlayEvaluator overlay(inst.distanceOracle(),
                                             inst.pairNodes());
  const auto dists = msc::core::pairDistancesUnder(overlay, inst, placement);

  std::cout << "\n--- " << label << " ---\n";
  std::cout << "shortcuts:";
  for (const auto& f : placement) {
    std::cout << " (" << f.a << "," << f.b << ")";
  }
  std::cout << "\nmaintained " << sigma.satisfiedCount() << " / "
            << inst.pairCount() << " social pairs\n";

  msc::util::TableWriter table({"pair", "base dist", "dist w/ F", "status"});
  for (int i = 0; i < inst.pairCount(); ++i) {
    const auto& p = inst.pairs()[static_cast<std::size_t>(i)];
    std::ostringstream name;
    name << "{" << p.u << "," << p.w << "}";
    const double base = inst.baseDistance(p);
    table.addRow({name.str(),
                  base == msc::graph::kInfDist
                      ? "inf"
                      : msc::util::formatFixed(base, 3),
                  msc::util::formatFixed(dists[static_cast<std::size_t>(i)], 3),
                  sigma.pairSatisfied(i) ? "maintained" : "broken"});
  }
  table.print(std::cout);

  msc::graph::DotStyle style;
  std::vector<std::pair<double, double>> pos;
  for (const auto& p : positions) pos.push_back({p.x, p.y});
  style.positions = pos;
  for (const auto& f : placement) style.shortcuts.push_back({f.a, f.b});
  for (const auto& p : inst.pairs()) style.socialPairs.push_back({p.u, p.w});
  std::ofstream dot(dotPath);
  msc::graph::writeDot(dot, inst.graph(), style);
  std::cout << "layout written to " << dotPath << '\n';
}

}  // namespace

int main() {
  using namespace msc;

  eval::printHeader(std::cout,
                    "Fig 1: placement picture, AA vs random selection",
                    "ICDCS'19 Fig. 1");

  eval::RgSetup setup;
  setup.nodes = 100;
  setup.pairs = 17;
  setup.failureThreshold = 0.14;
  setup.seed = static_cast<std::uint64_t>(util::envInt("MSC_SEED", 1));
  const auto spatial = eval::makeRgInstance(setup);
  const auto& inst = spatial.instance;
  std::cout << eval::describeInstance(inst) << '\n';

  const int k = static_cast<int>(util::envInt("MSC_K", 6));
  const auto cands = core::CandidateSet::allPairs(inst.graph().nodeCount());

  const std::string outDir = eval::outputDir();
  const auto aa = core::sandwichApproximation(inst, cands, {.k = k});
  report("Approximation Algorithm (k=" + std::to_string(k) + ")", inst,
         aa.placement, spatial.positions, outDir + "/fig1_aa.dot");

  core::SigmaEvaluator sigma(inst);
  core::RandomBaselineConfig rndCfg;
  rndCfg.repeats = util::scaledIters(500);
  const auto rnd = core::randomBaseline(
      sigma, cands, {.k = k, .seed = setup.seed}, rndCfg);
  report("Random selection (best of " + std::to_string(rndCfg.repeats) + ")",
         inst, rnd.placement, spatial.positions, outDir + "/fig1_random.dot");

  std::cout << "\nexpected shape: AA maintains at least as many pairs as the "
               "random baseline, with shortcuts bridging pair clusters\n";
  return 0;
}
