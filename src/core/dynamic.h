// Dynamic-network MSC (paper §VI).
//
// A dynamic network is a series of instances (G_1, S_1) .. (G_T, S_T); the
// objective becomes sigma(F) = sum_t sigma_t(F) — one placement serves all
// time instances. Sums of monotone submodular functions stay monotone
// submodular, so the summed mu / nu bounds and every algorithm (greedy,
// sandwich AA, EA, AEA) carry over unchanged; this module provides the
// summed evaluators and convenience wiring.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/bounds.h"
#include "core/candidates.h"
#include "core/instance.h"
#include "core/sandwich.h"
#include "core/set_function.h"
#include "core/sigma.h"

namespace msc::core {

/// Sum of child evaluators — used for dynamic sigma/mu/nu. The children
/// must evaluate instances over the same node universe (placements are
/// shared across them).
class SumEvaluator final : public SetFunction, public IncrementalEvaluator {
 public:
  /// Non-owning view over child evaluators that also implement SetFunction.
  /// Children must outlive the sum.
  SumEvaluator(std::vector<IncrementalEvaluator*> children,
               std::vector<const SetFunction*> childFunctions,
               std::string name);

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

/// A dynamic MSC problem: owns per-instance sigma/mu/nu evaluators and
/// exposes the summed ones.
class DynamicProblem {
 public:
  /// All instances must share the node universe [0, n); the candidate set
  /// is used to precompute the per-instance mu coverage bitsets.
  DynamicProblem(std::vector<Instance> instances,
                 const CandidateSet& candidates);

  const std::vector<Instance>& instances() const noexcept { return instances_; }
  int instanceCount() const noexcept {
    return static_cast<int>(instances_.size());
  }
  /// Total number of important pairs across all instances.
  int totalPairCount() const noexcept;

  SumEvaluator& sigma() noexcept { return *sigma_; }
  SumEvaluator& mu() noexcept { return *mu_; }
  SumEvaluator& nu() noexcept { return *nu_; }
  const SumEvaluator& sigmaFn() const noexcept { return *sigma_; }
  const SumEvaluator& nuFn() const noexcept { return *nu_; }

  /// Per-instance sigma of a placement (for the Fig. 5(b) per-time curves).
  std::vector<double> perInstanceSigma(const ShortcutList& placement) const;

  /// Sandwich approximation on the dynamic objective.
  SandwichResult sandwich(const CandidateSet& candidates,
                          const SolveOptions& options);

 private:
  std::vector<Instance> instances_;
  std::vector<std::unique_ptr<SigmaEvaluator>> sigmaParts_;
  std::vector<std::unique_ptr<MuEvaluator>> muParts_;
  std::vector<std::unique_ptr<NuEvaluator>> nuParts_;
  std::unique_ptr<SumEvaluator> sigma_;
  std::unique_ptr<SumEvaluator> mu_;
  std::unique_ptr<SumEvaluator> nu_;
};

}  // namespace msc::core
