// Exact distance updates under length-0 shortcut edges.
//
// Adding a single length-0 edge (a, b) to a graph changes every shortest
// distance by the closed form
//     d'(x, y) = min(d(x, y), d(x, a) + d(b, y), d(x, b) + d(a, y)),
// because a shortest path uses the new edge at most once (its length is 0
// and lengths are non-negative, so crossing it twice is never shorter than
// a path crossing it once). Applying this relaxation per edge of a shortcut
// set F, in any order, yields exact distances for G ∪ F — this is the hot
// path of the sigma evaluator.
//
// Two granularities are provided:
//   * applyZeroEdge — the full-matrix form, O(v^2) per shortcut on a v-by-v
//     metric; the kernel of the terminal overlay (graph/overlay.h), whose
//     v stays small.
//   * ShortcutRowStore — the same relaxation restricted to the rows the
//     incremental evaluators read (social-pair endpoints plus shortcut
//     endpoints), O(|rows| * n) per shortcut. From a symmetric base,
//     row values evolve bit-identically to the corresponding rows of the
//     full matrix.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/apsp.h"
#include "graph/distance_oracle.h"
#include "graph/graph.h"

namespace msc::graph {

/// In-place exact relaxation of `dist` for one new length-0 edge (a, b).
/// O(n^2). `dist` must be a valid (symmetric, triangle-inequality-consistent)
/// distance matrix; the result is again one.
void applyZeroEdge(DistanceMatrix& dist, NodeId a, NodeId b);

/// Evolving distance rows for a terminal set under zero-edge shortcuts.
///
/// Holds one full-length distance row per terminal and applies the exact
/// single-0-edge relaxation row-wise: applying shortcut (a, b) first
/// merges the endpoint columns of every row (m_u = min(row_u[a],
/// row_u[b])), then relaxes row_u[y] against m_u + merged[y], where
/// `merged` is the element-wise min of the rows of a and b — exactly the
/// update applyZeroEdge performs on those matrix rows, in the same
/// floating-point operand order, so from a symmetric base a row here is
/// bit-identical to the corresponding row of the evolved full matrix at
/// every step.
///
/// Terminals may be added mid-stream (applyZeroEdge pulls in its endpoint
/// rows automatically): a late row starts from the oracle's base row and
/// replays the per-shortcut merged-row snapshots in order, which
/// reconstructs the exact row the full-matrix path would have evolved.
///
/// Memory: (|terminals| + 2|applied|) rows of n doubles, plus one merged
/// snapshot per applied shortcut — O((|T| + k) * n) instead of O(n^2).
class ShortcutRowStore {
 public:
  /// Seeds one row per terminal from the oracle (duplicates collapse).
  /// The oracle must outlive the store. `threads` parallelizes the initial
  /// fetch of rows the oracle has not cached yet (0 = all cores).
  ShortcutRowStore(const DistanceOracle& oracle,
                   std::span<const NodeId> terminals, int threads = 1);

  int nodeCount() const noexcept { return n_; }
  std::size_t rowCount() const noexcept { return rows_.size(); }
  std::size_t appliedCount() const noexcept { return applied_.size(); }
  bool hasRow(NodeId v) const;

  /// Current-placement distance row of `v` (nodeCount() entries). Adds and
  /// replays the row if `v` was not a terminal yet.
  const double* row(NodeId v);

  /// Row of `v`, or nullptr when v holds no row (never computes).
  const double* rowIfPresent(NodeId v) const;

  /// Current-placement distance from terminal `u` to any node `x`;
  /// computes u's row on demand.
  double distance(NodeId u, NodeId x);

  /// Applies one zero-length shortcut (a, b) to every stored row.
  void applyZeroEdge(NodeId a, NodeId b);

  /// Back to base distances for the construction-time terminal set; rows
  /// added later and all applied shortcuts are dropped.
  void reset();

  // ---- row-lifecycle telemetry (docs/ALGORITHMS.md §16) ------------------
  // Monotonic since construction; relaxed atomics so concurrent readers
  // (stats scrapes) never race the evaluator thread mutating the store.

  /// Rows seeded from the oracle (initial terminal sets; reset() re-counts).
  std::uint64_t rowsMaterialized() const noexcept {
    return rowsMaterialized_.load(std::memory_order_relaxed);
  }
  /// Row relaxations performed by applyZeroEdge (rows x shortcuts).
  std::uint64_t rowsEvolved() const noexcept {
    return rowsEvolved_.load(std::memory_order_relaxed);
  }
  /// Late-terminal rows rebuilt by replaying applied shortcuts.
  std::uint64_t rowsReplayed() const noexcept {
    return rowsReplayed_.load(std::memory_order_relaxed);
  }
  /// Resident bytes of the stored rows + merged snapshots.
  std::size_t residentBytes() const noexcept {
    return (rows_.size() + applied_.size()) *
           (static_cast<std::size_t>(n_) * sizeof(double) + 64);
  }

 private:
  std::size_t ensureRowSlot(NodeId v);

  struct AppliedShortcut {
    NodeId a;
    NodeId b;
    std::vector<double> merged;  // evolved row of a (== of b) post-apply
  };

  const DistanceOracle* oracle_;
  int n_;
  int threads_;
  std::vector<NodeId> baseTerminals_;  // deduplicated; reset() target
  std::vector<int> slot_;              // node -> row index or -1
  std::vector<NodeId> owners_;         // row index -> node
  std::vector<std::vector<double>> rows_;
  std::vector<AppliedShortcut> applied_;

  std::atomic<std::uint64_t> rowsMaterialized_{0};
  std::atomic<std::uint64_t> rowsEvolved_{0};
  std::atomic<std::uint64_t> rowsReplayed_{0};
};

}  // namespace msc::graph
