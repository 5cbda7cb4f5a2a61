#include "core/repair.h"

#include <algorithm>
#include <stdexcept>

#include "core/gain_scan.h"

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
    const detail::ScanBest add = detail::gainScan(
        objective, candidates, /*threads=*/1, /*requirePositiveGain=*/false,
        [&](std::size_t c) { return contains(reduced, candidates[c]); },
        [](double gain, std::size_t) { return gain; });
    if (add.index < 0) break;
    const Shortcut added = candidates[static_cast<std::size_t>(add.index)];
    const double candidateValue = bestWithout + add.gain;
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
