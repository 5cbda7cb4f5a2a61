// The MSC objective sigma(F): number of important social pairs whose
// shortest-path distance in G ∪ F meets the distance requirement
// (paper §III-C). With pair weights (one per pair, finite and >= 0) it is
// the sum of the maintained pairs' weights; no weights means 1.0 each,
// which is the paper's count exactly (every partial sum is an integer).
//
// Two exact paths, one per access pattern:
//   * incremental (reset/prepareScan/gainIfAdd/add): apply each added
//     shortcut as an exact zero-edge relaxation to the pair-endpoint
//     distance rows (graph/shortcut_distance.h), O(|rows| * n) per
//     shortcut. A marginal gain checks the closed form for the
//     unsatisfied pairs: all of them (O(m)) without a scan index, or after
//     prepareScan(C) only those with one endpoint within d_t of each
//     shortcut endpoint (core/pair_ball.h). The index is exact — distances
//     are >= 0, so a skipped pair could never pass — costs
//     O(m_unsat * |endpoints(C)|) per scan, and is dropped by add()/reset().
//   * whole placement (value, sigmaValue): zero-edge relaxations on the
//     small terminal overlay (graph/overlay.h), a v-by-v metric with
//     v <= min(n, |pair nodes| + 2|F|), so it never holds more than the
//     rows path would.
#pragma once

#include <vector>

#include "core/instance.h"
#include "core/pair_ball.h"
#include "core/set_function.h"
#include "graph/overlay.h"
#include "graph/shortcut_distance.h"

namespace msc::core {

/// `weights` with one entry per pair of `instance`, each finite and >= 0;
/// empty means 1.0 per pair. Throws std::invalid_argument otherwise.
std::vector<double> checkPairWeights(const Instance& instance,
                                     std::vector<double> weights);

class SigmaEvaluator final : public SetFunction, public IncrementalEvaluator {
 public:
  /// The instance must outlive the evaluator. `pairWeights` as in
  /// checkPairWeights (empty: every pair weighs 1.0).
  explicit SigmaEvaluator(const Instance& instance,
                          std::vector<double> pairWeights = {});

  // --- SetFunction ---
  double value(const ShortcutList& placement) const override;
  std::string name() const override { return "sigma"; }

  // --- IncrementalEvaluator ---
  void reset() override;
  /// Sum of the weights of the pairs maintained under the current
  /// placement (added in ascending pair order within each add()).
  double currentValue() const override { return current_; }
  double gainIfAdd(const Shortcut& f) const override;
  void add(const Shortcut& f) override;
  void prepareScan(const CandidateSet& candidates) override;

  // --- introspection on the current incremental state ---
  /// Number of maintained pairs, whatever their weights.
  int satisfiedCount() const noexcept { return satisfied_; }
  bool pairSatisfied(int pairIndex) const {
    return pairSatisfied_.at(static_cast<std::size_t>(pairIndex)) != 0;
  }
  /// Distance of pair `pairIndex` under the current placement. Exact when
  /// <= d_t; above d_t the rows are exact only within d_t (see
  /// Instance::baseRow), so in the pair-centric mode a larger distance may
  /// read +inf. The dense mode's rows are full, so there it is exact.
  double pairDistance(int pairIndex) const;
  const Instance& instance() const noexcept { return *instance_; }

 private:
  void refreshSatisfied();
  // Marks the open pairs the current rows satisfy, in ascending order.
  void markSatisfied();

  const Instance* instance_;
  std::vector<double> weights_;  // one per pair
  msc::graph::OverlayEvaluator overlay_;  // over instance.pairNodes()
  // Pair-endpoint distance rows under the current placement.
  msc::graph::ShortcutRowStore rows_;
  std::vector<std::uint8_t> pairSatisfied_;
  int satisfied_ = 0;
  double current_ = 0.0;
  // Scan index over rows_ (valid from prepareScan until add/reset).
  PairBallIndex near_;
};

/// Distance of every pair of `instance` in G ∪ placement, in pair order,
/// read off `overlay` (built over instance.pairNodes()). The whole-placement
/// path of sigma.
std::vector<double> pairDistancesUnder(
    const msc::graph::OverlayEvaluator& overlay, const Instance& instance,
    const ShortcutList& placement);

/// One-shot sigma(F): builds a terminal overlay and nothing else.
double sigmaValue(const Instance& instance, const ShortcutList& placement);

}  // namespace msc::core
