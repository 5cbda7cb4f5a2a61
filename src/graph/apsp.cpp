#include "graph/apsp.h"

#include <algorithm>

#include "graph/dijkstra.h"
#include "obs/metrics.h"
#include "util/parallel.h"

namespace msc::graph {

DistanceMatrix allPairsDistances(const Graph& g, int threads) {
  // Histograms record even with metrics disabled (one sample per build):
  // the serve layer needs APSP tail latency without turning on MSC_METRICS.
  static auto& buildHist = msc::obs::histogram("apsp.build_seconds");
  MSC_OBS_SPAN("apsp.run", buildHist, msc::obs::Phase::Apsp);
  const auto n = static_cast<std::size_t>(g.nodeCount());
  DistanceMatrix d(n, n, kInfDist);
  // One Dijkstra per source; each writes only its own row.
  msc::util::parallelForThreads(
      threads, 0, n, 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          const auto tree = dijkstra(g, static_cast<NodeId>(s));
          for (std::size_t v = 0; v < n; ++v) d(s, v) = tree.dist[v];
        }
      });
  // Runs from different sources sum edge lengths in different orders and
  // can differ in the last ulp; enforce exact symmetry so downstream
  // relaxations (which write both triangles) stay consistent. Two passes
  // keep the writes row-disjoint: first fold the min into the upper
  // triangle (row i only writes columns > i and reads d(j, i) values no
  // phase-one writer touches), then mirror it down.
  msc::util::parallelForThreads(
      threads, 0, n, 8, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          for (std::size_t j = i + 1; j < n; ++j) {
            d(i, j) = std::min(d(i, j), d(j, i));
          }
        }
      });
  msc::util::parallelForThreads(
      threads, 0, n, 8, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          for (std::size_t j = 0; j < i; ++j) d(i, j) = d(j, i);
        }
      });
  return d;
}

DistanceMatrix allPairsDistancesFloydWarshall(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.nodeCount());
  DistanceMatrix d(n, n, kInfDist);
  for (std::size_t v = 0; v < n; ++v) d(v, v) = 0.0;
  for (const Edge& e : g.edges()) {
    const auto u = static_cast<std::size_t>(e.u);
    const auto v = static_cast<std::size_t>(e.v);
    d(u, v) = std::min(d(u, v), e.length);
    d(v, u) = std::min(d(v, u), e.length);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dik = d(i, k);
      if (dik == kInfDist) continue;
      const double* rowK = d.row(k);
      double* rowI = d.row(i);
      for (std::size_t j = 0; j < n; ++j) {
        const double via = dik + rowK[j];
        if (via < rowI[j]) rowI[j] = via;
      }
    }
  }
  return d;
}

}  // namespace msc::graph
