// Candidate shortcut universe.
//
// The paper's placement searches over F ⊆ V x V; this class materializes
// that universe (all unordered node pairs) with a stable index so the
// evolutionary algorithms can flip candidates by id. A restricted
// constructor supports ablations (e.g. only pair-node incident shortcuts).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/types.h"

namespace msc::core {

class CandidateSet {
 public:
  /// All n(n-1)/2 unordered node pairs.
  static CandidateSet allPairs(int nodeCount);

  /// Only shortcuts incident to `hub` (the MSC-CN search space {u} x V).
  static CandidateSet incidentTo(int nodeCount, NodeId hub);

  /// Explicit list (deduplicated, normalized).
  explicit CandidateSet(ShortcutList candidates);

  std::size_t size() const noexcept { return candidates_.size(); }
  bool empty() const noexcept { return candidates_.empty(); }

  const Shortcut& operator[](std::size_t i) const { return candidates_.at(i); }

  const ShortcutList& all() const noexcept { return candidates_; }

  /// Nodes incident to some candidate, ascending and unique — the nodes a
  /// gain scan over this set can probe.
  const std::vector<NodeId>& endpoints() const noexcept { return endpoints_; }

  /// True when every pair of endpoints() is a candidate (allPairs, the
  /// serve pair-node universe; an empty set too).
  bool holdsAllEndpointPairs() const noexcept {
    // The candidates are distinct pairs a < b of endpoints: at most e(e-1)/2
    // of them, and that many only when all are there.
    const std::size_t e = endpoints_.size();
    return e < 2 || 2 * candidates_.size() == e * (e - 1);
  }

  /// Index of a shortcut, or -1 if not a candidate. O(1) when the
  /// candidates starting at f.a are every later endpoint (allPairs, the
  /// serve pair-node universe), O(log size) otherwise.
  long indexOf(const Shortcut& f) const {
    if (!(f.a < f.b) || candidates_.empty() || f.a < lo_ ||
        f.b >= lo_ + static_cast<NodeId>(slot_.size())) {
      return -1;
    }
    const int pa = slot_[static_cast<std::size_t>(f.a - lo_)];
    const int pb = slot_[static_cast<std::size_t>(f.b - lo_)];
    if (pa < 0 || pb < 0) return -1;
    const std::size_t first = firstOf_[static_cast<std::size_t>(pa)];
    const std::size_t last = firstOf_[static_cast<std::size_t>(pa) + 1];
    if (last - first == endpoints_.size() - static_cast<std::size_t>(pa) - 1) {
      return static_cast<long>(first) + (pb - pa - 1);
    }
    const auto begin = candidates_.begin() + static_cast<long>(first);
    const auto end = candidates_.begin() + static_cast<long>(last);
    const auto it = std::lower_bound(begin, end, f);
    if (it == end || !(*it == f)) return -1;
    return static_cast<long>(it - candidates_.begin());
  }

 private:
  ShortcutList candidates_;  // sorted, unique
  std::vector<NodeId> endpoints_;
  NodeId lo_ = 0;          // smallest endpoint
  std::vector<int> slot_;  // [node - lo_] -> position in endpoints_, or -1
  // [position p] -> first candidate whose a is endpoints_[p]; size + 1 entries.
  std::vector<std::size_t> firstOf_;
};

}  // namespace msc::core
