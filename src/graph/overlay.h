// Overlay-graph distance evaluation for arbitrary shortcut sets.
//
// Evaluating sigma(F) for a whole placement F (EA/AEA offspring, the
// sandwich's final scoring, a served eval) does not need full n-by-n
// distances:
// any shortest path in G ∪ F between two social-pair endpoints visits a
// shortcut endpoint exactly where it crosses a shortcut. So it suffices to
// work on the small "overlay" metric over
//     terminals = {social-pair endpoints} ∪ {endpoints of F},
// whose pairwise weights are base-graph distances, plus the length-0
// shortcut edges. The overlay has at most min(n, |terminals| + 2|F|) nodes;
// the shortcuts are applied as exact zero-edge relaxations of that small
// complete metric (graph/shortcut_distance.h).
#pragma once

#include <utility>
#include <vector>

#include "graph/apsp.h"
#include "graph/distance_oracle.h"
#include "graph/graph.h"

namespace msc::graph {

/// Precomputes terminal indexing against a distance oracle; then answers
/// pair-distance queries under arbitrary shortcut sets.
///
/// The oracle must outlive the evaluator.
class OverlayEvaluator {
 public:
  /// `terminals` are the nodes whose pairwise distances will be queried
  /// (duplicates are deduplicated). Shortcut endpoints passed to
  /// pairDistances() need not be listed; their distance rows are pulled
  /// from the oracle on demand (and cached there).
  OverlayEvaluator(const DistanceOracle& oracle, std::vector<NodeId> terminals);

  /// Exact distances in G ∪ shortcuts for each query pair. Query endpoints
  /// must be terminals given at construction; shortcut endpoints may be any
  /// node of the base graph.
  std::vector<double> pairDistances(
      const std::vector<std::pair<NodeId, NodeId>>& queryPairs,
      const std::vector<std::pair<NodeId, NodeId>>& shortcuts) const;

 private:
  void indexTerminals();

  const DistanceOracle* oracle_;
  std::vector<NodeId> terminals_;        // deduplicated, sorted
  std::vector<int> terminalIndex_;       // node -> overlay slot or -1
};

}  // namespace msc::graph
