// Slow, obviously-correct references the tests compare the library
// against, and a helper that replays a placement through an incremental
// evaluator. None of them is on a solver path.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/set_function.h"
#include "core/types.h"
#include "graph/apsp.h"
#include "graph/dijkstra.h"
#include "graph/graph.h"
#include "graph/shortcut_distance.h"

namespace msc::test {

/// Distance between x and y if the single length-0 edge (a, b) were added to
/// the metric in `dist` (does not modify `dist`). O(1).
inline double distanceWithZeroEdge(const msc::graph::DistanceMatrix& dist,
                                   msc::graph::NodeId x, msc::graph::NodeId y,
                                   msc::graph::NodeId a, msc::graph::NodeId b) {
  const auto ux = static_cast<std::size_t>(x);
  const auto uy = static_cast<std::size_t>(y);
  const auto ua = static_cast<std::size_t>(a);
  const auto ub = static_cast<std::size_t>(b);
  double d = dist(ux, uy);
  d = std::min(d, dist(ux, ua) + dist(ub, uy));
  d = std::min(d, dist(ux, ub) + dist(ua, uy));
  return d;
}

/// The exact distance matrix of G ∪ F from the base matrix, applying every
/// shortcut in sequence with the full-matrix relaxation. O(|F| * n^2).
inline msc::graph::DistanceMatrix distancesWithShortcuts(
    const msc::graph::DistanceMatrix& base,
    const std::vector<std::pair<msc::graph::NodeId, msc::graph::NodeId>>&
        shortcuts) {
  msc::graph::DistanceMatrix dist = base;
  for (const auto& [a, b] : shortcuts) msc::graph::applyZeroEdge(dist, a, b);
  return dist;
}

/// Distance of every pair of `instance` in the graph rebuilt with the
/// placement as length-0 edges, one Dijkstra per pair.
inline std::vector<double> pairDistancesByRebuild(
    const msc::core::Instance& instance,
    const msc::core::ShortcutList& placement) {
  msc::graph::Graph g(instance.graph().nodeCount());
  for (const msc::graph::Edge& e : instance.graph().edges()) {
    g.addEdge(e.u, e.v, e.length);
  }
  for (const msc::core::Shortcut& f : placement) g.addEdge(f.a, f.b, 0.0);
  std::vector<double> out;
  for (const msc::core::SocialPair& p : instance.pairs()) {
    out.push_back(msc::graph::dijkstraDistance(g, p.u, p.w));
  }
  return out;
}

/// sigma(F) by rebuilding the graph and rerunning Dijkstra.
inline double sigmaByRebuild(const msc::core::Instance& instance,
                             const msc::core::ShortcutList& placement) {
  int count = 0;
  for (const double d : pairDistancesByRebuild(instance, placement)) {
    if (d <= instance.distanceThreshold()) ++count;
  }
  return static_cast<double>(count);
}

/// Value of `placement` through the incremental path: reset, then add()
/// every shortcut.
inline double incrementalValue(msc::core::IncrementalEvaluator& eval,
                               const msc::core::ShortcutList& placement) {
  eval.reset();
  for (const msc::core::Shortcut& f : placement) eval.add(f);
  return eval.currentValue();
}

/// Weighted sigma(F) by rebuild: pair weights summed in ascending pair order.
inline double weightedSigmaByRebuild(const msc::core::Instance& instance,
                                     const std::vector<double>& weights,
                                     const msc::core::ShortcutList& placement) {
  const auto dists = pairDistancesByRebuild(instance, placement);
  double total = 0.0;
  for (std::size_t i = 0; i < dists.size(); ++i) {
    if (dists[i] <= instance.distanceThreshold()) total += weights[i];
  }
  return total;
}

}  // namespace msc::test
