// Per-scan d_t-ball pair index: which pairs can a shortcut (a, b) satisfy?
//
// A pair (u, w) counts for shortcut (a, b) iff
//     min(d(u,a) + d(b,w), d(u,b) + d(a,w)) <= d_t.
// Distances are >= 0 (Graph::addEdge rejects negative and non-finite
// lengths) and fl(x + y) >= x for y >= 0, so each sum exceeds d_t (or is
// NaN) unless one endpoint of the pair lies within d_t of a and one within
// d_t of b. PairBallIndex keeps, for every node x a scan can probe, the set
// near(x) of open pairs with an endpoint in the d_t-ball of x; a probe of
// (a, b) then tests only near(a) ∩ near(b), in ascending pair order, with
// the unchanged expression. A pair outside that intersection could never
// have passed, so gains (and their floating-point sums) are bit-identical
// to the full loop.
//
// The σ evaluator builds it once per scan (IncrementalEvaluator::
// prepareScan) over the current rows and drops it on add()/reset(); μ
// builds it once over base rows to fill its per-candidate bitsets. Building costs O(open pairs * |nodes|), never more than one
// probe per indexed node; it is written only outside parallel probe loops,
// which just read it.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"
#include "graph/shortcut_distance.h"

namespace msc::core {

/// Distance rows of one pair's endpoints (row of u, row of w), each
/// indexed by graph node. The row of w stands in for the column of w (the
/// metric is symmetric).
struct PairRows {
  const double* u = nullptr;
  const double* w = nullptr;
};

/// Rows of every pair's endpoints in `store`, which must hold them (the
/// σ evaluator seeds its store with the pair nodes).
std::vector<PairRows> pairRowsOf(std::span<const SocialPair> pairs,
                                 const msc::graph::ShortcutRowStore& store);

/// The one-shortcut test of pair p for shortcut f (the μ predicate):
/// min(d(u,w), d(u,a) + d(b,w), d(u,b) + d(a,w)) <= dt.
inline bool satisfiedWithOneShortcut(const PairRows& rows, const SocialPair& p,
                                     const Shortcut& f, double dt) {
  const auto w = static_cast<std::size_t>(p.w);
  const auto a = static_cast<std::size_t>(f.a);
  const auto b = static_cast<std::size_t>(f.b);
  return std::min({rows.u[w], rows.u[a] + rows.w[b], rows.u[b] + rows.w[a]}) <=
         dt;
}

class PairBallIndex {
 public:
  /// Rebuilds the index over `nodes` (each in [0, nodeCount)). Pair i is
  /// open iff !(rows[i].u[pairs[i].w] <= dt); near(x) holds the open pairs
  /// with rows[i].u[x] <= dt || rows[i].w[x] <= dt. The row pointers are
  /// kept (see rows()) and must stay valid until the next build or
  /// invalidate().
  void build(std::span<const SocialPair> pairs, std::span<const PairRows> rows,
             double dt, std::span<const NodeId> nodes, int nodeCount);

  /// Drops the index (the rows it was built over changed); later probes
  /// must take the full loop until the next build.
  void invalidate() noexcept { valid_ = false; }

  bool valid() const noexcept { return valid_; }

  /// The rows of pair i the index was built over.
  const PairRows& rows(std::size_t i) const { return rows_[i]; }

  /// Calls fn(i) for every pair i in near(a) ∩ near(b), ascending, and
  /// returns true. Returns false without calling fn when the index is not
  /// valid or a or b was not indexed (the caller runs its full loop).
  template <typename Fn>
  bool forEachShared(NodeId a, NodeId b, Fn&& fn) const {
    if (!valid_) return false;
    const int sa = slotOf(a);
    const int sb = slotOf(b);
    if (sa < 0 || sb < 0) return false;
    // data() + offset, not &words_[offset]: with no pairs words_ is empty.
    const std::uint64_t* na =
        words_.data() + static_cast<std::size_t>(sa) * stride_;
    const std::uint64_t* nb =
        words_.data() + static_cast<std::size_t>(sb) * stride_;
    for (std::size_t w = 0; w < stride_; ++w) {
      std::uint64_t bits = na[w] & nb[w];
      while (bits != 0) {
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
      }
    }
    return true;
  }

 private:
  int slotOf(NodeId x) const noexcept {
    const auto ux = static_cast<std::size_t>(x);
    return ux < slot_.size() ? slot_[ux] : -1;
  }

  bool valid_ = false;
  std::size_t stride_ = 0;           // words per node: ceil(pairs / 64)
  std::vector<int> slot_;            // [graph node] -> row of words_, or -1
  std::vector<NodeId> nodes_;        // indexed nodes (slots to clear)
  std::vector<std::uint64_t> words_; // |nodes_| x stride_ pair bits
  std::vector<PairRows> rows_;       // [pair] -> rows built over
};

}  // namespace msc::core
