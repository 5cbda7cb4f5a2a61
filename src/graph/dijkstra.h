// Dijkstra shortest paths on the base graph.
//
// Four entry points run one search loop:
//   * full single-source distances and tree (APSP, routing, path tools),
//   * bounded search that never expands beyond a distance limit (the MSC
//     distance requirement d_t makes most queries short-range), with the
//     tree or — for the distance oracle's rows — distances only,
//   * point-to-point with target early exit: the distance oracle's point
//     queries whose row is not cached. A settled node's distance is final,
//     so the result is bit-identical to the full row's entry.
//
// The loop settles nodes from an indexed 4-ary min-heap holding one entry
// per reached node, keyed by (dist[v], v) and lowered in place when a
// shorter path is found. That key order is exactly the pop order of a lazy
// heap of (distance, node) pairs that skips stale entries: the live entry
// of v is (dist[v], v), every stale one is larger, and a settled node is
// never lowered again (lengths are >= 0 and fl(d + l) >= d). So every
// variant settles the same nodes in the same order, relaxes the same arcs
// in the same order and therefore writes the same distance bits and the
// same parents (the last strict improvement) as that textbook loop; the
// variants without a tree only skip the parent writes.
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

/// dijkstraBounded(g, source, limit).dist, bit for bit, without building
/// the parent array: the distance oracle's row build.
std::vector<double> dijkstraBoundedDistances(const Graph& g, NodeId source,
                                             double limit);

/// Point-to-point distance with early exit once `target` is settled.
double dijkstraDistance(const Graph& g, NodeId source, NodeId target);

/// Reconstructs the node sequence source -> ... -> target from a tree;
/// nullopt if target is unreachable.
std::optional<std::vector<NodeId>> extractPath(const ShortestPathTree& tree,
                                               NodeId source, NodeId target);

}  // namespace msc::graph
