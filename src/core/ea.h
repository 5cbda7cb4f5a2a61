// Evolutionary Algorithm (EA) — paper Algorithm 1.
//
// A GSEMO-style Pareto optimizer over two objectives: maximize sigma(F)
// and minimize |F|. Each iteration picks a random archived solution,
// flips every candidate shortcut independently with probability
// 2/(n(n-1)) (= 1/|candidates|), and archives the offspring unless some
// archived solution weakly dominates it; dominated archive members are
// evicted. The answer is the best archived solution with |F| <= k.
// Theorems 6/7 bound the expected iterations to reach the
// (1 - 1/e)(sigma(F*) - eps*k) band via the sandwich bounds.
//
// Following the POMC convention for constrained subset selection, offspring
// larger than sizeCapFactor * k are discarded — they can never become
// feasible by further flips faster than rebuilding, and capping them keeps
// the archive (and each iteration) small. sizeCapFactor is configurable;
// the paper's uncapped behaviour is sizeCapFactor = 0 (off).
#pragma once

#include <optional>
#include <vector>

#include "core/candidates.h"
#include "core/options.h"
#include "core/set_function.h"
#include "util/cancel.h"

namespace msc::core {

struct EaConfig {
  /// Number of mutation iterations r.
  int iterations = 500;
  /// Flip probability per candidate; defaults to 1/|candidates| (the
  /// paper's 2/(n(n-1)) when candidates = all node pairs).
  std::optional<double> flipProbability;
  /// Discard offspring with |F| > sizeCapFactor * k; 0 disables the cap.
  int sizeCapFactor = 2;
};

struct EaResult {
  ShortcutList placement;
  double value = 0.0;
  /// Best feasible value after each iteration (size == iterations), for the
  /// paper's Fig. 4 value-vs-r curves.
  std::vector<double> bestByIteration;
  /// Final archive size (diagnostic).
  std::size_t archiveSize = 0;

  // --- observability (always filled, independent of msc::obs state) ---
  /// Offspring objective evaluations (mutation-free iterations skip one).
  std::size_t gainEvaluations = 0;
  /// Mutation iterations actually run (== config.iterations unless the
  /// run was interrupted).
  int iterations = 0;
  /// Why the run stopped early (None = all iterations ran). Checked at
  /// generation boundaries; the archive built so far still yields a valid
  /// best-feasible placement.
  util::CancelReason interrupted = util::CancelReason::None;
};

/// options.k is the size budget and options.seed drives mutation; the EA's
/// mutate-evaluate-archive loop is inherently sequential, so options.threads
/// only reaches any parallel-aware SetFunction the caller passes in.
EaResult evolutionaryAlgorithm(const SetFunction& objective,
                               const CandidateSet& candidates,
                               const SolveOptions& options,
                               const EaConfig& config = {});

}  // namespace msc::core
