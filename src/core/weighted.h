// Weighted MSC: important pairs with heterogeneous importance.
//
// The paper counts maintained pairs uniformly; real deployments rarely do
// (a commander-to-squad link outweighs a peer link). This extension keeps
// the entire machinery intact by generalizing the three set functions:
//   * weighted sigma:  sum of weights of maintained pairs,
//   * weighted mu:     one-shortcut-restricted weighted coverage (still
//                      monotone submodular, still a lower bound),
//   * weighted nu:     endpoint coverage with node weight = half the sum of
//                      its pairs' weights (still submodular upper bound —
//                      the proof of §V-B2 is weight-oblivious).
// Greedy, sandwich AA, EA and AEA then run unchanged on these evaluators;
// with all weights 1 everything reduces exactly to the unweighted
// evaluators (the tests check this).
#pragma once

#include <vector>

#include "core/candidates.h"
#include "core/instance.h"
#include "core/pair_ball.h"
#include "core/sandwich.h"
#include "core/set_function.h"
#include "graph/overlay.h"
#include "graph/shortcut_distance.h"
#include "util/bitset.h"

namespace msc::core {

/// Validates one weight per pair, all finite and >= 0.
std::vector<double> checkPairWeights(const Instance& instance,
                                     std::vector<double> weights);

/// Weighted objective: sum of pair weights whose distance under the
/// placement meets the requirement.
class WeightedSigmaEvaluator final : public SetFunction,
                                     public IncrementalEvaluator {
 public:
  WeightedSigmaEvaluator(const Instance& instance,
                         std::vector<double> pairWeights);

  double value(const ShortcutList& placement) const override;
  std::string name() const override { return "sigma_w"; }

  void reset() override;
  double currentValue() const override { return current_; }
  double gainIfAdd(const Shortcut& f) const override;
  void add(const Shortcut& f) override;
  /// Builds the same scan index as SigmaEvaluator (core/pair_ball.h).
  void prepareScan(const CandidateSet& candidates) override;

  const std::vector<double>& pairWeights() const noexcept { return weights_; }

 private:
  const Instance* instance_;
  std::vector<double> weights_;
  msc::graph::OverlayEvaluator overlay_;  // over instance.pairNodes()
  // Pair-endpoint distance rows under the current placement.
  msc::graph::ShortcutRowStore rows_;
  std::vector<std::uint8_t> satisfied_;
  double current_ = 0.0;
  PairBallIndex near_;  // valid from prepareScan until add/reset
};

/// Weighted lower bound (one-shortcut restriction).
class WeightedMuEvaluator final : public SetFunction,
                                  public IncrementalEvaluator {
 public:
  WeightedMuEvaluator(const Instance& instance,
                      const CandidateSet& candidates,
                      std::vector<double> pairWeights);

  double value(const ShortcutList& placement) const override;
  std::string name() const override { return "mu_w"; }

  void reset() override;
  double currentValue() const override;
  double gainIfAdd(const Shortcut& f) const override;
  void add(const Shortcut& f) override;

 private:
  double weightOf(const util::Bitset& covered) const;
  const util::Bitset& bitsetFor(const Shortcut& f, util::Bitset& scratch) const;

  const Instance* instance_;
  const CandidateSet* candidates_;
  std::vector<double> weights_;
  std::vector<util::Bitset> perCandidate_;
  util::Bitset baseSatisfied_;
  util::Bitset covered_;
};

/// Weighted upper bound (endpoint coverage, node weight = sum of incident
/// pair weights / 2).
class WeightedNuEvaluator final : public SetFunction,
                                  public IncrementalEvaluator {
 public:
  WeightedNuEvaluator(const Instance& instance,
                      std::vector<double> pairWeights);

  double value(const ShortcutList& placement) const override;
  std::string name() const override { return "nu_w"; }

  void reset() override;
  double currentValue() const override { return current_; }
  double gainIfAdd(const Shortcut& f) const override;
  void add(const Shortcut& f) override;

 private:
  double gainOfEndpoint(NodeId v, const util::Bitset& covered) const;

  const Instance* instance_;
  std::vector<util::Bitset> coverage_;   // [graph node] -> pair-node bits
  std::vector<double> nodeWeights_;      // [pair-node index]
  double baseConstant_ = 0.0;
  util::Bitset covered_;
  double current_ = 0.0;
};

/// Sandwich approximation on the weighted objective.
SandwichResult weightedSandwich(const Instance& instance,
                                const std::vector<double>& pairWeights,
                                const CandidateSet& candidates,
                                const SolveOptions& options);

}  // namespace msc::core
