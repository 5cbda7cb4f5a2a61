#include "core/repair.h"

#include <algorithm>
#include <stdexcept>

namespace msc::core {

RepairResult repairPlacement(IncrementalEvaluator& objective,
                             const CandidateSet& candidates,
                             ShortcutList current, int maxSwaps) {
  if (maxSwaps < 0) throw std::invalid_argument("repair: negative swap budget");

  RepairResult result;
  const ShortcutList original = sorted(current);
  double best = objective.evaluate(current);

  for (int swap = 0; swap < maxSwaps && !current.empty(); ++swap) {
    // Drop the edge whose removal costs least.
    std::size_t dropIdx = 0;
    double bestWithout = -1.0;
    for (std::size_t i = 0; i < current.size(); ++i) {
      ShortcutList without;
      without.reserve(current.size() - 1);
      for (std::size_t j = 0; j < current.size(); ++j) {
        if (j != i) without.push_back(current[j]);
      }
      const double v = objective.evaluate(without);
      if (v > bestWithout) {
        bestWithout = v;
        dropIdx = i;
      }
    }
    const Shortcut dropped = current[dropIdx];
    ShortcutList reduced;
    reduced.reserve(current.size() - 1);
    for (std::size_t j = 0; j < current.size(); ++j) {
      if (j != dropIdx) reduced.push_back(current[j]);
    }

    // Add the best candidate (possibly the dropped edge itself, in which
    // case the swap is a no-op and we stop).
    objective.evaluate(reduced);
    objective.prepareScan(candidates);
    double bestGain = 0.0;
    long bestIdx = -1;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (contains(reduced, candidates[c])) continue;
      const double gain = objective.gainIfAdd(candidates[c]);
      if (bestIdx < 0 || gain > bestGain) {
        bestGain = gain;
        bestIdx = static_cast<long>(c);
      }
    }
    if (bestIdx < 0) break;
    const Shortcut added = candidates[static_cast<std::size_t>(bestIdx)];
    const double candidateValue = bestWithout + bestGain;
    if (candidateValue <= best || added == dropped) {
      break;  // no improving swap left
    }
    reduced.push_back(added);
    current = std::move(reduced);
    best = candidateValue;
    ++result.swapsUsed;
  }

  result.placement = current;
  result.value = objective.evaluate(current);

  const ShortcutList after = sorted(current);
  // Edges of the original placement no longer present.
  result.edgesChanged = static_cast<int>(original.size());
  for (const Shortcut& f : original) {
    if (std::binary_search(after.begin(), after.end(), f)) {
      --result.edgesChanged;
    }
  }
  return result;
}

}  // namespace msc::core
