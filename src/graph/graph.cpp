#include "graph/graph.h"

#include <cmath>
#include <utility>

namespace msc::graph {

Graph::Graph(const Graph& other) : n_(other.n_), edges_(other.edges_) {
  // A fresh CSR is immutable until the next non-const call, so it can be
  // copied without the guard; a stale one is rebuilt here on first read.
  if (other.csrFresh_.load()) {
    offsets_ = other.offsets_;
    arcs_ = other.arcs_;
    csrFresh_.store(true);
  }
}

Graph::Graph(Graph&& other) noexcept
    : n_(std::exchange(other.n_, 0)),
      edges_(std::move(other.edges_)),
      offsets_(std::move(other.offsets_)),
      arcs_(std::move(other.arcs_)),
      csrFresh_(other.csrFresh_.exchange(false)) {
  other.edges_.clear();
}

Graph& Graph::operator=(const Graph& other) {
  if (this != &other) *this = Graph(other);
  return *this;
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    n_ = std::exchange(other.n_, 0);
    edges_ = std::move(other.edges_);
    offsets_ = std::move(other.offsets_);
    arcs_ = std::move(other.arcs_);
    csrFresh_.store(other.csrFresh_.exchange(false));
    other.edges_.clear();
  }
  return *this;
}

void Graph::addEdge(NodeId u, NodeId v, double length) {
  checkNode(u);
  checkNode(v);
  if (u == v) throw std::invalid_argument("Graph::addEdge: self-loop");
  if (!std::isfinite(length) || length < 0.0) {
    throw std::invalid_argument(
        "Graph::addEdge: length must be finite and non-negative");
  }
  edges_.push_back({u, v, length});
  csrFresh_.store(false);
}

void Graph::rebuildAdjacency() const {
  const std::lock_guard<std::mutex> lock(csrMu_);
  if (csrFresh_.load()) return;  // another reader
  const auto n = static_cast<std::size_t>(n_);
  offsets_.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    ++offsets_[static_cast<std::size_t>(e.u) + 1];
    ++offsets_[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) offsets_[i + 1] += offsets_[i];
  arcs_.resize(2 * edges_.size());
  std::vector<std::size_t> next(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& e : edges_) {
    arcs_[next[static_cast<std::size_t>(e.u)]++] = {e.v, e.length};
    arcs_[next[static_cast<std::size_t>(e.v)]++] = {e.u, e.length};
  }
  csrFresh_.store(true);
}

bool Graph::hasEdge(NodeId u, NodeId v) const {
  checkNode(u);
  checkNode(v);
  // Scan the smaller adjacency list.
  const NodeId a = degree(u) <= degree(v) ? u : v;
  const NodeId b = (a == u) ? v : u;
  for (const Arc& arc : neighbors(a)) {
    if (arc.to == b) return true;
  }
  return false;
}

double Graph::averageDegree() const noexcept {
  if (n_ == 0) return 0.0;
  return 2.0 * static_cast<double>(edges_.size()) / static_cast<double>(n_);
}

}  // namespace msc::graph
