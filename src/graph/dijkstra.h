// Dijkstra shortest paths on the base graph.
//
// Three variants of one search loop cover the library's needs:
//   * full single-source distances (full oracle rows, APSP),
//   * bounded search that never expands beyond a distance limit (the MSC
//     distance requirement d_t makes most queries short-range),
//   * point-to-point with target early exit: the distance oracle's point
//     queries whose row is not cached. A settled node's distance is final,
//     so the result is bit-identical to the full row's entry.
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.h"

namespace msc::graph {

/// Result of a single-source run: dist[v] (kInfDist if unreachable) and
/// parent[v] (-1 for the source and unreachable nodes).
struct ShortestPathTree {
  std::vector<double> dist;
  std::vector<NodeId> parent;
};

/// Full single-source Dijkstra from `source`.
ShortestPathTree dijkstra(const Graph& g, NodeId source);

/// Bounded Dijkstra: nodes at distance > limit are left at kInfDist
/// (exact for all nodes within the limit). `limit` must be >= 0.
ShortestPathTree dijkstraBounded(const Graph& g, NodeId source, double limit);

/// Point-to-point distance with early exit once `target` is settled.
double dijkstraDistance(const Graph& g, NodeId source, NodeId target);

/// Reconstructs the node sequence source -> ... -> target from a tree;
/// nullopt if target is unreachable.
std::optional<std::vector<NodeId>> extractPath(const ShortestPathTree& tree,
                                               NodeId source, NodeId target);

}  // namespace msc::graph
