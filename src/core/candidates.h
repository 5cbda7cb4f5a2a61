// Candidate shortcut universe.
//
// The paper's placement searches over F ⊆ V x V; this class materializes
// that universe (all unordered node pairs) with a stable index so the
// evolutionary algorithms can flip candidates by id. A restricted
// constructor supports ablations (e.g. only pair-node incident shortcuts).
#pragma once

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

  /// Index of a shortcut, or -1 if not a candidate. O(log size).
  long indexOf(const Shortcut& f) const;

 private:
  ShortcutList candidates_;  // sorted, unique
  std::vector<NodeId> endpoints_;
};

}  // namespace msc::core
