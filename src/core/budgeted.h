// Budgeted shortcut placement: heterogeneous link costs.
//
// The paper's cardinality constraint (|F| <= k) treats every shortcut as
// equally expensive. Real reliable links are not: a UAV relay between two
// nearby squads costs less than a satellite hop across the theater. This
// extension replaces the cardinality constraint with a knapsack constraint
//     sum_{f in F} cost(f) <= budget
// and solves it with the classical pair of greedy rules for submodular (and
// here near-submodular) maximization under a knapsack:
//   * density greedy — pick the candidate maximizing gain/cost among those
//     that still fit;
//   * uniform greedy — ignore costs, pick the best-gain candidate that fits.
// Returning the better of the two recovers the standard constant-factor
// behaviour (for submodular objectives, max(density, uniform) is a
// (1 - 1/sqrt(e))-approximation); with unit costs and budget k both
// collapse to the paper's greedy (the tests check this).
#pragma once

#include <functional>

#include "core/candidates.h"
#include "core/options.h"
#include "core/set_function.h"
#include "gen/point.h"
#include "util/cancel.h"

namespace msc::core {

/// Cost of placing one shortcut. Must be positive and finite for every
/// candidate.
using CostFunction = std::function<double(const Shortcut&)>;

/// Unit costs: knapsack budget k == cardinality k.
CostFunction unitCost();

/// Geometry-based cost: fixedCost + perMeter * euclidean(endpoints).
/// Models "longer reliable links need bigger assets".
CostFunction distanceCost(const std::vector<msc::gen::Point>& positions,
                          double fixedCost, double perMeter);

struct BudgetedResult {
  ShortcutList placement;
  double value = 0.0;
  double cost = 0.0;
  /// Which rule produced the returned placement: "density" or "uniform".
  std::string winner;
  /// Both component results, for ablations.
  ShortcutList densityPlacement, uniformPlacement;
  double densityValue = 0.0, uniformValue = 0.0;

  // --- observability (always filled, independent of msc::obs state) ---
  /// Candidate gains scored, summed over both greedy rules.
  std::size_t gainEvaluations = 0;
  /// Accepted picks summed over both greedy rules.
  int rounds = 0;
  /// Why the run stopped early (None = both rules ran to exhaustion).
  /// Checked at pick boundaries of each rule; both component placements
  /// are valid (budget-respecting) prefixes.
  util::CancelReason interrupted = util::CancelReason::None;
};

/// Best of density-greedy and uniform-greedy under the knapsack budget.
/// The evaluator is left holding the returned placement. The knapsack
/// budget replaces options.k (which is ignored); options.threads shards
/// both rules' per-round candidate scans deterministically.
BudgetedResult budgetedGreedy(IncrementalEvaluator& eval,
                              const CandidateSet& candidates,
                              const CostFunction& cost, double budget,
                              const SolveOptions& options);

}  // namespace msc::core
