// Set-function abstractions shared by every MSC algorithm.
//
// The paper optimizes three set functions over shortcut placements — the
// objective sigma, its submodular lower bound mu, and upper bound nu — plus
// their sums over dynamic topology series. One interface pair covers them
// all: SetFunction for whole-set evaluation (evolutionary algorithms,
// baselines, exact search) and IncrementalEvaluator for the greedy loops
// (cheap marginal gains against mutable internal state).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"

namespace msc::core {

class CandidateSet;

/// One greedy round's pick (IncrementalEvaluator::argmaxGain).
struct GainPick {
  long index = -1;              // candidate index, -1 when no gain is > 0
  double gain = 0.0;            // its marginal gain
  std::size_t evaluations = 0;  // unskipped candidates of the round
};

/// Read-only whole-set evaluation: value(F) for arbitrary placements.
class SetFunction {
 public:
  virtual ~SetFunction() = default;

  /// Value of the placement. Implementations must be pure (same F -> same
  /// value) and tolerate duplicates in F.
  virtual double value(const ShortcutList& placement) const = 0;

  /// Short identifier for logs/tables ("sigma", "mu", "nu", ...).
  virtual std::string name() const = 0;
};

/// Stateful evaluation for greedy-style algorithms: the evaluator holds a
/// current placement; callers query marginal gains and commit additions.
///
/// Contract: after reset(), the state is F = {}; add(f) transitions the
/// state from F to F ∪ {f}; gainIfAdd(f) == value(F ∪ {f}) - value(F)
/// without changing state; currentValue() == value(current F).
class IncrementalEvaluator {
 public:
  virtual ~IncrementalEvaluator() = default;

  virtual void reset() = 0;
  virtual double currentValue() const = 0;
  virtual double gainIfAdd(const Shortcut& f) const = 0;
  virtual void add(const Shortcut& f) = 0;

  /// Fills gains[c] with gainIfAdd(candidates[c]) for every candidate c
  /// not flagged in `skip`, bit for bit, under the current state, using
  /// `threads` workers (util::resolveThreadCount). Does not change the
  /// state. `skip` is empty (score every candidate) or holds one flag per
  /// candidate; a flagged entry of `gains` is left unspecified, and the
  /// default never probes it, so a probe-counting wrapper sees exactly the
  /// candidates its caller scores. The default runs the gainIfAdd loop
  /// sharded over the pool by candidate range; evaluators with a cheaper
  /// bulk form override it. Callers may run it under a
  /// util::ScopedChunkCancel and must then discard `gains` once the token
  /// fired (skipped chunks leave their entries unset). gains.size() must
  /// equal candidates.size().
  virtual void scanGains(const CandidateSet& candidates,
                         std::span<double> gains, int threads,
                         std::span<const std::uint8_t> skip);

  /// Greedy's pick under the current state: the lowest-index candidate not
  /// flagged in `skip` (as in scanGains) whose gain is the largest and
  /// positive (index -1 when no gain is), that gain bit for bit as
  /// gainIfAdd returns it, and the number of unskipped candidates. The
  /// result is the same at any `threads`. Does not change the state.
  /// `scratch` is a gains buffer the default resizes to candidates.size()
  /// and fills through scanGains before folding over it in index order;
  /// a caller keeps it across rounds so it is allocated once. Evaluators
  /// that can find the maximum without scoring every candidate override
  /// it (NuEvaluator). Callers may run it under a util::ScopedChunkCancel
  /// and must then discard the pick once the token fired.
  virtual GainPick argmaxGain(const CandidateSet& candidates, int threads,
                              std::span<const std::uint8_t> skip,
                              std::vector<double>& scratch);

  /// Sets the state to exactly `placement` and returns its value.
  double evaluate(const ShortcutList& placement) {
    reset();
    for (const Shortcut& f : placement) add(f);
    return currentValue();
  }
};

}  // namespace msc::core
