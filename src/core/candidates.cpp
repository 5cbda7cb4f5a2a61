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
  lo_ = candidates_.front().a;
  NodeId hi = candidates_.front().b;
  for (const Shortcut& f : candidates_) hi = std::max(hi, f.b);
  slot_.assign(static_cast<std::size_t>(hi - lo_) + 1, -1);
  for (const Shortcut& f : candidates_) {
    slot_[static_cast<std::size_t>(f.a - lo_)] = 0;
    slot_[static_cast<std::size_t>(f.b - lo_)] = 0;
  }
  for (std::size_t i = 0; i < slot_.size(); ++i) {
    if (slot_[i] < 0) continue;
    slot_[i] = static_cast<int>(endpoints_.size());
    endpoints_.push_back(lo_ + static_cast<NodeId>(i));
  }
  // Candidates are sorted by a, so each endpoint's run is contiguous.
  firstOf_.assign(endpoints_.size() + 1, 0);
  for (const Shortcut& f : candidates_) {
    const int pa = slot_[static_cast<std::size_t>(f.a - lo_)];
    ++firstOf_[static_cast<std::size_t>(pa) + 1];
  }
  for (std::size_t p = 1; p < firstOf_.size(); ++p) {
    firstOf_[p] += firstOf_[p - 1];
  }
}

}  // namespace msc::core
