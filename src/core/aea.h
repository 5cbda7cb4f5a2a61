// Adaptive Evolutionary Algorithm (AEA) — paper Algorithm 2.
//
// AEA keeps a population of at most l feasible size-k placements. Each
// iteration picks a population member uniformly at random and produces a
// swap-neighbor:
//   * with probability 1 - delta (delta close to 0): a GREEDY swap — remove
//     the shortcut whose removal hurts sigma least, then add the candidate
//     whose addition helps sigma most;
//   * with probability delta: a RANDOM swap — remove a uniformly random
//     member edge, add a uniformly random non-member candidate.
// The offspring replaces the worst population member when it beats it;
// the best member is the answer. All offspring stay feasible (|F| = k),
// so AEA never spends iterations on infeasible placements (the paper's
// second improvement over EA).
#pragma once

#include <vector>

#include "core/candidates.h"
#include "core/options.h"
#include "core/set_function.h"
#include "util/cancel.h"

namespace msc::core {

struct AeaConfig {
  /// Number of swap iterations r.
  int iterations = 500;
  /// Population size l.
  int populationSize = 10;
  /// Probability of a random (exploration) swap; the paper uses 0.05.
  double delta = 0.05;
};

struct AeaResult {
  ShortcutList placement;
  double value = 0.0;
  /// Best population value after each iteration (for Fig. 4 curves).
  std::vector<double> bestByIteration;

  // --- observability (always filled, independent of msc::obs state) ---
  /// Whole-set evaluations + candidates scored by greedy adds.
  std::size_t gainEvaluations = 0;
  /// Swap iterations actually run (== config.iterations unless the run
  /// was interrupted).
  int iterations = 0;
  /// Why the run stopped early (None = all iterations ran). Checked at
  /// generation boundaries; the population always holds feasible size-k
  /// placements, so the best member is a valid anytime answer.
  util::CancelReason interrupted = util::CancelReason::None;
};

/// `eval` provides both whole-set evaluation (population scoring) and
/// incremental gains (the greedy add step); it is left in an unspecified
/// state afterwards. options.seed drives the swap RNG; options.threads
/// shards the greedy-add candidate scan (deterministic — identical result
/// for any thread count).
AeaResult adaptiveEvolutionaryAlgorithm(IncrementalEvaluator& eval,
                                        const CandidateSet& candidates,
                                        const SolveOptions& options,
                                        const AeaConfig& config = {});

}  // namespace msc::core
