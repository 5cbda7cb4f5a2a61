#include "graph/dijkstra.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "obs/metrics.h"

namespace msc::graph {

namespace {

// Indexed 4-ary min-heap of node ids keyed by (dist, id), with decrease-key
// (see dijkstra.h for why this order keeps the bits). Each entry carries its
// key, so sifting reads only the heap array.
class NodeHeap {
 public:
  struct Entry {
    double key;
    NodeId node;
  };

  explicit NodeHeap(std::size_t n) : pos_(n, kAbsent) {}

  bool empty() const noexcept { return heap_.empty(); }

  /// Inserts `node` at `key`, or lowers its key to `key` if it is queued.
  void push(NodeId node, double key) {
    NodeId& at = pos_[static_cast<std::size_t>(node)];
    std::size_t i = static_cast<std::size_t>(at);
    if (at == kAbsent) {
      i = heap_.size();
      heap_.emplace_back();
    }
    siftUp(i, {key, node});
  }

  /// Removes and returns the least entry.
  Entry pop() {
    const Entry top = heap_.front();
    pos_[static_cast<std::size_t>(top.node)] = kAbsent;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) siftDown(0, last);
    return top;
  }

 private:
  static constexpr NodeId kAbsent = -1;

  static bool less(const Entry& a, const Entry& b) noexcept {
    return a.key < b.key || (a.key == b.key && a.node < b.node);
  }

  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    pos_[static_cast<std::size_t>(e.node)] = static_cast<NodeId>(i);
  }

  void siftUp(std::size_t i, const Entry& e) {
    while (i > 0) {
      const std::size_t up = (i - 1) / 4;
      if (!less(e, heap_[up])) break;
      place(i, heap_[up]);
      i = up;
    }
    place(i, e);
  }

  void siftDown(std::size_t i, const Entry& e) {
    const std::size_t size = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= size) break;
      const std::size_t end = std::min(first + 4, size);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (less(heap_[c], heap_[best])) best = c;
      }
      if (!less(heap_[best], e)) break;
      place(i, heap_[best]);
      i = best;
    }
    place(i, e);
  }

  std::vector<Entry> heap_;
  std::vector<NodeId> pos_;  // heap index of each queued node, else kAbsent
};

// The one search loop. Returns dist; fills `parent` when it is non-null.
// `target` -1 searches the whole ball of radius `limit`.
std::vector<double> run(const Graph& g, NodeId source, double limit,
                        NodeId target, std::vector<NodeId>* parent) {
  g.checkNode(source);
  const auto n = static_cast<std::size_t>(g.nodeCount());
  std::vector<double> dist(n, kInfDist);
  if (parent) parent->assign(n, -1);
  dist[static_cast<std::size_t>(source)] = 0.0;

  NodeHeap heap(n);
  heap.push(source, 0.0);
  std::uint64_t settled = 0;
  while (!heap.empty()) {
    const auto [d, u] = heap.pop();
    ++settled;
    if (u == target) break;
    for (const Arc& arc : g.neighbors(u)) {
      const double nd = d + arc.length;
      if (nd > limit) continue;
      double& dv = dist[static_cast<std::size_t>(arc.to)];
      if (nd < dv) {
        dv = nd;
        if (parent) (*parent)[static_cast<std::size_t>(arc.to)] = u;
        heap.push(arc.to, nd);
      }
    }
  }
  if (msc::obs::enabled()) {
    static auto& cRuns = msc::obs::counter("dijkstra.runs");
    static auto& cSettled = msc::obs::counter("dijkstra.settled");
    cRuns.add(1);
    cSettled.add(settled);
  }
  return dist;
}

void checkLimit(double limit) {
  if (limit < 0.0) throw std::invalid_argument("dijkstraBounded: limit < 0");
}

}  // namespace

ShortestPathTree dijkstra(const Graph& g, NodeId source) {
  ShortestPathTree tree;
  tree.dist = run(g, source, kInfDist, -1, &tree.parent);
  return tree;
}

ShortestPathTree dijkstraBounded(const Graph& g, NodeId source, double limit) {
  checkLimit(limit);
  ShortestPathTree tree;
  tree.dist = run(g, source, limit, -1, &tree.parent);
  return tree;
}

std::vector<double> dijkstraBoundedDistances(const Graph& g, NodeId source,
                                             double limit) {
  checkLimit(limit);
  return run(g, source, limit, -1, nullptr);
}

double dijkstraDistance(const Graph& g, NodeId source, NodeId target) {
  g.checkNode(target);
  return run(g, source, kInfDist, target,
             nullptr)[static_cast<std::size_t>(target)];
}

std::optional<std::vector<NodeId>> extractPath(const ShortestPathTree& tree,
                                               NodeId source, NodeId target) {
  const auto n = tree.dist.size();
  if (source < 0 || target < 0 || static_cast<std::size_t>(source) >= n ||
      static_cast<std::size_t>(target) >= n) {
    throw std::out_of_range("extractPath: node index out of range");
  }
  if (tree.dist[static_cast<std::size_t>(target)] == kInfDist) {
    return std::nullopt;
  }
  std::vector<NodeId> path;
  for (NodeId v = target; v != -1; v = tree.parent[static_cast<std::size_t>(v)]) {
    path.push_back(v);
    if (v == source) break;
  }
  if (path.back() != source) return std::nullopt;
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace msc::graph
