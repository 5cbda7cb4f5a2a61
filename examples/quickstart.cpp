// Quickstart: the 60-second tour of the MSC link-placement API.
//
//   1. Build a wireless network (here: a random geometric graph whose link
//      failure probabilities grow with distance).
//   2. Pick the important social pairs and the reliability requirement p_t.
//   3. Ask the sandwich Approximation Algorithm (AA) for k shortcut edges.
//   4. Inspect which pairs are now maintained.
//
// Build & run:  ./examples/quickstart
#include <iostream>

#include "core/candidates.h"
#include "core/instance.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "gen/random_geometric.h"
#include "graph/apsp.h"
#include "util/rng.h"
#include "wireless/link_model.h"

int main() {
  using namespace msc;

  // 1. A 60-node wireless network in the unit square: nodes within 0.22 of
  //    each other get a link whose failure probability is 0.5 * distance.
  gen::RandomGeometricConfig netCfg;
  netCfg.nodes = 60;
  netCfg.radius = 0.22;
  netCfg.failure = wireless::DistanceProportionalFailure(0.5, 0.95);
  netCfg.seed = 2026;
  gen::SpatialNetwork net = gen::randomGeometricConnected(netCfg);
  std::cout << "network: " << net.graph.nodeCount() << " nodes, "
            << net.graph.edgeCount() << " links\n";

  // 2. Require path failure probability <= p_t = 0.12 and sample 12
  //    important pairs that currently miss that requirement.
  const double pt = 0.12;
  const double dt = wireless::failureThresholdToDistance(pt);
  const auto baseDist = graph::allPairsDistances(net.graph);
  util::Rng rng(7);
  auto pairs = core::sampleImportantPairs(net.graph, baseDist, 12, dt, rng);
  core::Instance instance(std::move(net.graph), std::move(pairs), dt);
  std::cout << "requirement: p_fail <= " << pt << "  (distance <= " << dt
            << ")\n";
  std::cout << "important pairs: " << instance.pairCount()
            << " (all currently broken)\n";

  // 3. Place k = 3 perfectly reliable shortcut links (satellite/UAV).
  const int k = 3;
  const auto candidates =
      core::CandidateSet::allPairs(instance.graph().nodeCount());
  const auto aa = core::sandwichApproximation(instance, candidates, {.k = k});

  std::cout << "\nAA placed " << aa.placement.size() << " shortcuts:";
  for (const auto& f : aa.placement) {
    std::cout << " (" << f.a << "-" << f.b << ")";
  }
  std::cout << "\nmaintained pairs: " << aa.sigma << " / "
            << instance.pairCount() << "\n";
  if (const auto ratio = aa.dataDependentRatio()) {
    std::cout << "data-dependent guarantee: at least "
              << *ratio * (1.0 - 1.0 / 2.718281828) * 100.0
              << "% of the optimal value\n";
  }

  // 4. Per-pair status under the chosen placement.
  core::SigmaEvaluator sigma(instance);
  sigma.evaluate(aa.placement);
  // An overlay at the default radius (+inf) gives exact distances even
  // above d_t, where the evaluator's d_t-bounded rows may read +inf.
  const graph::OverlayEvaluator overlay(instance.distanceOracle(),
                                        instance.pairNodes());
  const auto dists = core::pairDistancesUnder(overlay, instance, aa.placement);
  std::cout << "\npair status:\n";
  for (int i = 0; i < instance.pairCount(); ++i) {
    const auto& p = instance.pairs()[static_cast<std::size_t>(i)];
    std::cout << "  {" << p.u << "," << p.w << "}  p_fail "
              << wireless::lengthToFailure(instance.baseDistance(p)) << " -> "
              << wireless::lengthToFailure(dists[static_cast<std::size_t>(i)])
              << (sigma.pairSatisfied(i) ? "  [maintained]" : "  [broken]")
              << '\n';
  }
  return 0;
}
