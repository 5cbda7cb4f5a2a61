// Generic greedy maximization over shortcut candidates.
//
// The paper runs the same multi-round selection against three different set
// functions (sigma, mu, nu — §IV-B, §V-B) and against dynamic-network sums
// (§VI); this module implements it once over the IncrementalEvaluator
// interface. Each round takes the evaluator's argmaxGain — by default one
// bulk scanGains call and an index-order fold, for ν a bounded walk over
// endpoint pairs — and the sandwich algorithm runs this same loop for
// all three of its passes.
//
// With options.threads > 1 the per-round candidate gain scan is sharded
// across the global thread pool against read-only evaluator state; the
// deterministic lowest-index tie-break reduction makes parallel picks
// bit-identical to sequential (ALGORITHMS.md §10).
#pragma once

#include <vector>

#include "core/candidates.h"
#include "core/options.h"
#include "core/set_function.h"
#include "util/cancel.h"

namespace msc::core {

struct GreedyResult {
  ShortcutList placement;
  double value = 0.0;
  /// Objective value after each accepted pick (size == placement.size()).
  std::vector<double> trajectory;

  // --- observability (always filled, independent of msc::obs state) ---
  /// The unskipped candidates of every round (the gains a full scan
  /// scores, also when the evaluator's argmax computes fewer).
  std::size_t gainEvaluations = 0;
  /// Accepted picks (== placement.size(), kept separate for reporting).
  int rounds = 0;
  /// Why the pass stopped early (None = ran to its natural end). Observed
  /// from the request's util::CancelToken at round boundaries; when set,
  /// placement/trajectory hold the completed-round prefix, bit-identical
  /// to the same prefix of an uninterrupted run (ALGORITHMS.md §18).
  util::CancelReason interrupted = util::CancelReason::None;
};

/// Plain greedy: each of (at most) options.k rounds picks the candidate
/// with the largest marginal gain (ties -> lowest candidate index) and
/// stops early when no candidate has positive gain. The evaluator is left
/// holding the returned placement. options.seed is unused (deterministic).
GreedyResult greedyMaximize(IncrementalEvaluator& eval,
                            const CandidateSet& candidates,
                            const SolveOptions& options);

}  // namespace msc::core
