// Disaster-recovery scenario (paper §I + §VI): rescue teams sweep a
// disaster area; the network topology changes as they move, and a control
// center must stay connected to team leads across the whole operation.
// One set of shortcut links (satellite terminals) must be chosen up front
// to serve ALL predicted topologies — the dynamic MSC problem.
//
// Build & run:  ./examples/disaster_recovery
#include <iostream>

#include "core/aea.h"
#include "core/candidates.h"
#include "core/dynamic.h"
#include "gen/dynamic_series.h"
#include "gen/mobility.h"
#include "graph/apsp.h"
#include "util/rng.h"
#include "wireless/link_model.h"

int main() {
  using namespace msc;

  // Five rescue teams of 10 move through a 2.5 km area; positions are
  // sampled every 2 minutes for 12 instants (the "predicted topologies").
  gen::MobilityConfig mob;
  mob.groups = 5;
  mob.nodesPerGroup = 10;
  mob.areaMeters = 2500.0;
  mob.timeInstances = 12;
  mob.sampleIntervalSeconds = 120.0;
  mob.seed = 7;
  const auto trace = gen::referencePointGroupMobility(mob);

  gen::DynamicSeriesConfig radio;
  radio.radioRangeMeters = 350.0;
  radio.failure = wireless::DistanceProportionalFailure(0.001, 0.95);
  auto series = gen::buildDynamicSeries(trace, radio);

  // Control center = node 0; team leads = first member of each team; also
  // keep the leads connected to each other (coordination pairs).
  const double pt = 0.15;
  const double dt = wireless::failureThresholdToDistance(pt);
  std::vector<core::SocialPair> wanted;
  for (int g = 1; g < mob.groups; ++g) {
    wanted.push_back({0, g * mob.nodesPerGroup});
  }
  for (int g1 = 1; g1 < mob.groups; ++g1) {
    for (int g2 = g1 + 1; g2 < mob.groups; ++g2) {
      wanted.push_back({g1 * mob.nodesPerGroup, g2 * mob.nodesPerGroup});
    }
  }

  std::vector<core::Instance> instances;
  for (auto& net : series) {
    instances.emplace_back(std::move(net.graph), wanted, dt);
  }
  const int n = mob.groups * mob.nodesPerGroup;
  const auto cands = core::CandidateSet::allPairs(n);

  core::DynamicProblem problem(std::move(instances), cands);
  std::cout << "dynamic problem: T = " << problem.instanceCount()
            << " topologies, " << wanted.size()
            << " critical pairs each, p_fail <= " << pt << "\n";
  std::cout << "without shortcuts: " << problem.sigmaFn().value({}) << " / "
            << problem.totalPairCount()
            << " pair-instances maintained\n\n";

  const int k = 4;  // four satellite terminals

  // Sandwich approximation on the summed objective (§VI-2).
  const auto aa = problem.sandwich(cands, {.k = k});
  std::cout << "AA  (k=" << k << "): " << aa.sigma << " / "
            << problem.totalPairCount() << " pair-instances; shortcuts:";
  for (const auto& f : aa.placement) std::cout << " (" << f.a << "-" << f.b << ")";
  std::cout << '\n';

  // AEA refines further (§VI-3).
  core::AeaConfig aeaCfg;
  aeaCfg.iterations = 150;
  const auto aea =
      core::adaptiveEvolutionaryAlgorithm(problem.sigma(), cands, {.k = k, .seed = 1}, aeaCfg);
  std::cout << "AEA (k=" << k << ", r=" << aeaCfg.iterations
            << "): " << aea.value << "\n\n";

  // Where does the chosen placement fall short over time?
  const auto& best = (aea.value >= aa.sigma) ? aea.placement : aa.placement;
  const auto perTime = problem.perInstanceSigma(best);
  std::cout << "maintained pairs per time instant (best placement):\n  t:";
  for (std::size_t t = 0; t < perTime.size(); ++t) {
    std::cout << ' ' << perTime[t];
  }
  std::cout << "  (max " << wanted.size() << " each)\n";
  std::cout << "\nlesson: a single up-front placement keeps most critical "
               "pairs connected across every predicted topology, because "
               "the summed objective stays (almost) submodular-friendly.\n";
  return 0;
}
