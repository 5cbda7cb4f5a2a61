// Reference kernels reported beside the layer metrics: a STREAM-style copy
// (the memory roofline) and a textbook binary-heap Dijkstra (the floor for
// one oracle row build).
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <sstream>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {

namespace {

/// Last-level cache size in bytes from sysfs (0 when unknown).
std::size_t llcBytes() {
  std::size_t best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    std::size_t value = std::stoull(text);
    if (text.back() == 'K') value <<= 10;
    if (text.back() == 'M') value <<= 20;
    best = std::max(best, value);
  }
  if (best == 0) {
    const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (v > 0) best = static_cast<std::size_t>(v);
  }
  return best;
}

}  // namespace

CopyResult streamCopy(double minSeconds) {
  CopyResult r;
  r.llcBytes = llcBytes();
  // Each array at least 4x the LLC so the copy streams from DRAM; capped
  // at 2 GiB so a huge reported LLC cannot exhaust memory (both sizes are
  // reported, so a capped run shows it).
  r.arrayBytes = std::clamp<std::size_t>(4 * r.llcBytes, std::size_t{64} << 20,
                                         std::size_t{2} << 30);
  const std::size_t n = r.arrayBytes / sizeof(double);
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  for (std::size_t i = 0; i < n; ++i) a[i] = static_cast<double>(i & 1023);
  std::memset(b.get(), 0, n * sizeof(double));
  double best = 0.0;
  double total = 0.0;
  for (int rep = 0; rep < 3 || total < minSeconds; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    std::memcpy(b.get(), a.get(), n * sizeof(double));
    const double s = secondsSince(t0);
    total += s;
    // Copy moves 2 bytes per byte copied (read a, write b).
    best = std::max(best, 2.0 * static_cast<double>(n * sizeof(double)) / s / 1e9);
    a[rep % n] = b[(rep * 7919) % n];  // keep both arrays live
  }
  r.gbps = best;
  return r;
}

double heapDijkstraNsPerArc(const std::string& graphText,
                            const std::vector<int>& sources) {
  // Edge list -> adjacency, as in the textbook.
  std::istringstream in(graphText);
  int n = 0;
  in >> n;
  std::vector<std::vector<std::pair<int, double>>> adj(static_cast<std::size_t>(n));
  std::size_t arcs = 0;
  int u = 0;
  int v = 0;
  double len = 0.0;
  while (in >> u >> v >> len) {
    adj[static_cast<std::size_t>(u)].push_back({v, len});
    adj[static_cast<std::size_t>(v)].push_back({u, len});
    arcs += 2;
  }
  if (sources.empty() || arcs == 0) return 0.0;
  using Item = std::pair<double, int>;
  std::vector<double> dist(static_cast<std::size_t>(n));
  double checksum = 0.0;
  double seconds = 0.0;
  std::size_t runs = 0;
  while (seconds < 0.05 || runs < sources.size()) {
    const int s = sources[runs % sources.size()];
    const auto t0 = std::chrono::steady_clock::now();
    std::fill(dist.begin(), dist.end(), std::numeric_limits<double>::infinity());
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
    dist[static_cast<std::size_t>(s)] = 0.0;
    pq.push({0.0, s});
    while (!pq.empty()) {
      const auto [d, x] = pq.top();
      pq.pop();
      if (d > dist[static_cast<std::size_t>(x)]) continue;
      for (const auto& [y, w] : adj[static_cast<std::size_t>(x)]) {
        const double nd = d + w;
        if (nd < dist[static_cast<std::size_t>(y)]) {
          dist[static_cast<std::size_t>(y)] = nd;
          pq.push({nd, y});
        }
      }
    }
    seconds += secondsSince(t0);
    checksum += dist[static_cast<std::size_t>(n - 1)];
    ++runs;
  }
  if (checksum < 0) return -1.0;  // never: distances are non-negative
  return seconds * 1e9 / static_cast<double>(runs * arcs);
}

}  // namespace perfbench
