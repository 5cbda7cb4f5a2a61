// Robust MSC: maximize the WORST-case maintained connections over a set of
// topology scenarios.
//
// §VI's dynamic objective sums sigma_t over predicted topologies — the
// right goal when every time instant matters equally. When the scenarios
// are alternative futures (prediction uncertainty) the operator instead
// wants the placement whose worst scenario is best:
//     maximize_F  min_t sigma_t(F).
// The min of monotone functions is monotone but NOT submodular (even when
// the parts are), so — exactly like sigma itself — greedy is a heuristic
// here and the evolutionary machinery applies unchanged through the
// IncrementalEvaluator interface this class implements.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/candidates.h"
#include "core/greedy.h"
#include "core/options.h"
#include "core/set_function.h"

namespace msc::core {

/// Minimum over child evaluators (same contract as SumEvaluator: children
/// share the node universe and outlive this object).
class MinEvaluator final : public SetFunction, public IncrementalEvaluator {
 public:
  MinEvaluator(std::vector<IncrementalEvaluator*> children,
               std::vector<const SetFunction*> childFunctions,
               std::string name = "min");

  // SetFunction
  double value(const ShortcutList& placement) const override;
  std::string name() const override { return name_; }

  // IncrementalEvaluator
  void reset() override;
  double currentValue() const override;
  double gainIfAdd(const Shortcut& f) const override;
  void add(const Shortcut& f) override;
  /// The children's scanGains, combined per candidate as gainIfAdd does.
  void scanGains(const CandidateSet& candidates, std::span<double> gains,
                 int threads, std::span<const std::uint8_t> skip) override;

 private:
  std::vector<IncrementalEvaluator*> children_;
  std::vector<const SetFunction*> childFunctions_;
  std::string name_;
};

/// Truncated sum: sum_t min(child_t(F), cap). The workhorse of the
/// SATURATE scheme below — truncation preserves monotonicity (and
/// submodularity, when the children are submodular) while making "lift the
/// worst scenario" visible to greedy marginal gains.
class TruncatedSumEvaluator final : public SetFunction,
                                    public IncrementalEvaluator {
 public:
  TruncatedSumEvaluator(std::vector<IncrementalEvaluator*> children,
                        std::vector<const SetFunction*> childFunctions,
                        double cap);

  double value(const ShortcutList& placement) const override;
  std::string name() const override { return "truncated_sum"; }

  void reset() override;
  double currentValue() const override;
  double gainIfAdd(const Shortcut& f) const override;
  void add(const Shortcut& f) override;
  /// The children's scanGains, combined per candidate as gainIfAdd does.
  void scanGains(const CandidateSet& candidates, std::span<double> gains,
                 int threads, std::span<const std::uint8_t> skip) override;

  double cap() const noexcept { return cap_; }

 private:
  std::vector<IncrementalEvaluator*> children_;
  std::vector<const SetFunction*> childFunctions_;
  double cap_;
};

struct SaturateResult {
  ShortcutList placement;
  /// min_t sigma_t of the returned placement.
  double worstCase = 0.0;
  /// Largest target level c whose truncated-greedy run reached c in every
  /// scenario.
  double targetReached = 0.0;

  // --- observability (always filled, independent of msc::obs state) ---
  /// Candidate gains scored, summed over all inner greedy runs.
  std::size_t gainEvaluations = 0;
  /// Binary-search steps (inner greedy runs) taken.
  int iterations = 0;
};

/// SATURATE-style robust placement (Krause et al.), adapted to a hard
/// budget: binary-search the target level c over the integers; for each c
/// run greedy on sum_t min(sigma_t, c) with budget k and test whether every
/// scenario reached c. Plain greedy on the min objective stalls on the
/// zero-marginal-gain plateau (every edge helps only one scenario); the
/// truncated sum does not. With a hard budget (instead of SATURATE's
/// relaxed one) this is a heuristic, but it inherits the scheme's behaviour
/// in practice — the ablation bench quantifies it.
SaturateResult robustSaturate(std::vector<IncrementalEvaluator*> children,
                              std::vector<const SetFunction*> childFunctions,
                              const CandidateSet& candidates,
                              const SolveOptions& options, double maxTarget);

}  // namespace msc::core
