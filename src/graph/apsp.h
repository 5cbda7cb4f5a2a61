// All-pairs shortest path distances.
//
// No evaluator reads this matrix: they read d_t-bounded rows from the
// distance oracle (distance_oracle.h). The full matrix serves the pair
// samplers (core/instance.h), the tools and the tests. The n per-source
// Dijkstra runs are independent (each writes its own matrix row), so the
// matrix build parallelizes embarrassingly — pass threads > 1 for large
// instances (the result is bit-identical to the sequential build for any
// thread count). A Floyd-Warshall implementation is kept as an independent
// reference for the test suite.
#pragma once

#include "graph/graph.h"
#include "util/matrix.h"

namespace msc::graph {

/// Symmetric n-by-n matrix of shortest-path lengths; kInfDist when
/// disconnected, 0 on the diagonal.
using DistanceMatrix = util::Matrix<double>;

/// APSP via one Dijkstra per node, `threads` sources in flight at a time
/// (0 = all hardware threads, 1 = sequential). O(n * (m + n) log n) work.
DistanceMatrix allPairsDistances(const Graph& g, int threads = 1);

/// APSP via Floyd-Warshall. O(n^3); reference implementation for tests.
DistanceMatrix allPairsDistancesFloydWarshall(const Graph& g);

}  // namespace msc::graph
