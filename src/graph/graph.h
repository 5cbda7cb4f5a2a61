// Undirected weighted graph substrate.
//
// This is the communication-network model from §III of the paper: nodes are
// radios, edges are wireless links, and the edge length is the negative
// log-reliability -ln(1 - p_fail), so shortest path == most reliable path.
// Shortcut edges (length 0) are NOT stored here — they live in the
// candidate/placement layer of src/core, which evaluates them against
// precomputed distances of this base graph.
//
// Storage. The edge list is the source of truth; the adjacency is one CSR
// pair (offsets, arcs) derived from it, so a Dijkstra over 10^4 nodes walks
// two flat arrays instead of 10^4 separately allocated lists. addEdge
// appends to the edge list in amortized O(1) and marks the CSR stale; the
// first adjacency read after a change (neighbors, degree, hasEdge)
// rebuilds it by a counting sort over the edges in insertion
// order, O(n + m), so each node's arcs keep the order in which its edges
// were added. The rebuild runs under a guard: any number of threads may
// read a shared const Graph at once, including its first read. As with the
// standard containers, a non-const call (addEdge, assignment, move) must
// not race with any other call, and it invalidates the spans handed out
// before it. Build a graph, then read it: interleaving addEdge and reads
// costs one rebuild per read that follows a change.
#pragma once

#include <atomic>
#include <cstddef>
#include <limits>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

namespace msc::graph {

/// Node index type. Graphs in this library range from a handful of nodes
/// (the paper's figures) to 10^4 (the pair-churn service workload) and
/// 5·10^4 (the large-oracle smoke run); a distinct alias keeps signatures
/// readable.
using NodeId = int;

/// Distance value used throughout; unreachable == infinity().
constexpr double kInfDist = std::numeric_limits<double>::infinity();

/// One directed half of an undirected adjacency entry.
struct Arc {
  NodeId to = 0;
  double length = 0.0;
};

/// An undirected edge as stored in the edge list (u < v is NOT enforced;
/// endpoints keep insertion order).
struct Edge {
  NodeId u = 0;
  NodeId v = 0;
  double length = 0.0;
};

/// Undirected graph with non-negative edge lengths.
///
/// Invariants: every stored length is finite and >= 0; no self-loops.
/// Parallel edges are permitted (a shortcut may parallel a regular link; in
/// the base graph they can also arise from generators and are harmless for
/// shortest paths).
class Graph {
 public:
  Graph() = default;

  /// Creates a graph with `n` isolated nodes.
  explicit Graph(int n) : n_(checkedCount(n)) {}

  Graph(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(const Graph& other);
  Graph& operator=(Graph&& other) noexcept;
  ~Graph() = default;

  int nodeCount() const noexcept { return n_; }
  std::size_t edgeCount() const noexcept { return edges_.size(); }

  /// Adds an undirected edge. Throws on invalid endpoints, self-loop,
  /// negative or non-finite length.
  void addEdge(NodeId u, NodeId v, double length);

  /// Neighbors of `u` (both halves of undirected edges appear), in the
  /// order their edges were added. Lvalue-only: the span must not outlive
  /// the graph, so calling on a temporary is rejected at compile time.
  std::span<const Arc> neighbors(NodeId u) const& {
    checkNode(u);
    if (!csrFresh_.load()) rebuildAdjacency();
    const auto i = static_cast<std::size_t>(u);
    return {arcs_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  std::span<const Arc> neighbors(NodeId u) const&& = delete;

  /// All undirected edges in insertion order (lvalue-only, see neighbors).
  std::span<const Edge> edges() const& noexcept { return edges_; }
  std::span<const Edge> edges() const&& = delete;

  int degree(NodeId u) const { return static_cast<int>(neighbors(u).size()); }

  /// True if some edge directly connects u and v.
  bool hasEdge(NodeId u, NodeId v) const;

  /// Average degree 2|E|/n (0 for the empty graph).
  double averageDegree() const noexcept;

  void checkNode(NodeId u) const {
    if (u < 0 || u >= nodeCount()) {
      throw std::out_of_range("Graph: node index out of range");
    }
  }

 private:
  static int checkedCount(int n) {
    if (n < 0) throw std::invalid_argument("Graph: negative node count");
    return n;
  }

  /// Counting sort of edges_ into offsets_/arcs_, under csrMu_.
  void rebuildAdjacency() const;

  int n_ = 0;
  std::vector<Edge> edges_;
  // The CSR, derived from edges_ and valid while csrFresh_ is set: the
  // arcs of node u are arcs_[offsets_[u] .. offsets_[u + 1]).
  mutable std::vector<std::size_t> offsets_;
  mutable std::vector<Arc> arcs_;
  mutable std::atomic<bool> csrFresh_{false};
  mutable std::mutex csrMu_;
};

}  // namespace msc::graph
