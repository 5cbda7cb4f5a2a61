#include "core/candidates.h"

#include <algorithm>
#include <stdexcept>

namespace msc::core {

CandidateSet CandidateSet::allPairs(int nodeCount) {
  if (nodeCount < 0) throw std::invalid_argument("CandidateSet: n < 0");
  ShortcutList list;
  list.reserve(static_cast<std::size_t>(nodeCount) *
               static_cast<std::size_t>(std::max(0, nodeCount - 1)) / 2);
  for (NodeId i = 0; i < nodeCount; ++i) {
    for (NodeId j = i + 1; j < nodeCount; ++j) list.push_back({i, j});
  }
  return CandidateSet(std::move(list));
}

CandidateSet CandidateSet::incidentTo(int nodeCount, NodeId hub) {
  if (hub < 0 || hub >= nodeCount) {
    throw std::out_of_range("CandidateSet::incidentTo: hub out of range");
  }
  ShortcutList list;
  list.reserve(static_cast<std::size_t>(std::max(0, nodeCount - 1)));
  for (NodeId v = 0; v < nodeCount; ++v) {
    if (v != hub) list.push_back(Shortcut::make(hub, v));
  }
  return CandidateSet(std::move(list));
}

CandidateSet::CandidateSet(ShortcutList candidates)
    : candidates_(std::move(candidates)) {
  for (Shortcut& f : candidates_) f = Shortcut::make(f.a, f.b);
  std::sort(candidates_.begin(), candidates_.end());
  candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                    candidates_.end());
  if (candidates_.empty()) return;
  // Mark-and-collect over the id range: O(size + range), no sort.
  NodeId lo = candidates_.front().a;
  NodeId hi = candidates_.front().b;
  for (const Shortcut& f : candidates_) hi = std::max(hi, f.b);
  std::vector<char> seen(static_cast<std::size_t>(hi - lo) + 1, 0);
  for (const Shortcut& f : candidates_) {
    seen[static_cast<std::size_t>(f.a - lo)] = 1;
    seen[static_cast<std::size_t>(f.b - lo)] = 1;
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i] != 0) endpoints_.push_back(lo + static_cast<NodeId>(i));
  }
}

long CandidateSet::indexOf(const Shortcut& f) const {
  const auto it =
      std::lower_bound(candidates_.begin(), candidates_.end(), f);
  if (it == candidates_.end() || !(*it == f)) return -1;
  return static_cast<long>(it - candidates_.begin());
}

}  // namespace msc::core
