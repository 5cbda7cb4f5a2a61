// The MSC objective sigma(F): number of important social pairs whose
// shortest-path distance in G ∪ F meets the distance requirement
// (paper §III-C).
//
// Three exact evaluation strategies are implemented, all returning the same
// value (the test suite cross-checks them):
//   * rows: apply |F| exact zero-edge relaxations to the pair-endpoint
//     distance rows (graph/shortcut_distance.h) — the incremental
//     workhorse; O(|rows| * n) per shortcut instead of the historical
//     O(n^2) full-matrix update. A marginal gain checks the closed form
//     for the unsatisfied pairs: all of them (O(m)) without a scan index,
//     or after prepareScan(C) only those with one endpoint within d_t of
//     each shortcut endpoint (core/pair_ball.h). The index is exact —
//     distances are >= 0, so a skipped pair could never pass — costs
//     O(m_unsat * |endpoints(C)|) per scan, and is dropped by add()/reset().
//   * overlay: shortest paths on the small terminal overlay (O(m + |F|)
//     nodes) — wins when n is large relative to the pair set.
//   * rebuild: add F to a copy of the graph and run Dijkstra — the slow
//     reference used by tests.
#pragma once

#include <memory>
#include <vector>

#include "core/instance.h"
#include "core/pair_ball.h"
#include "core/set_function.h"
#include "graph/overlay.h"
#include "graph/shortcut_distance.h"

namespace msc::core {

class SigmaEvaluator final : public SetFunction, public IncrementalEvaluator {
 public:
  /// The instance must outlive the evaluator.
  explicit SigmaEvaluator(const Instance& instance);

  // --- SetFunction ---
  double value(const ShortcutList& placement) const override;
  std::string name() const override { return "sigma"; }

  // --- IncrementalEvaluator ---
  void reset() override;
  double currentValue() const override {
    return static_cast<double>(satisfied_);
  }
  double gainIfAdd(const Shortcut& f) const override;
  void add(const Shortcut& f) override;
  void prepareScan(const CandidateSet& candidates) override;

  // --- introspection on the current incremental state ---
  int satisfiedCount() const noexcept { return satisfied_; }
  bool pairSatisfied(int pairIndex) const {
    return pairSatisfied_.at(static_cast<std::size_t>(pairIndex)) != 0;
  }
  /// Distance of pair `pairIndex` under the current placement.
  double pairDistance(int pairIndex) const;
  const Instance& instance() const noexcept { return *instance_; }

  // --- individual strategies (exposed for tests and microbenchmarks) ---
  double valueByRows(const ShortcutList& placement) const;
  double valueByOverlay(const ShortcutList& placement) const;
  double valueByRebuild(const ShortcutList& placement) const;

 private:
  int countSatisfied(const msc::graph::ShortcutRowStore& rows) const;
  void refreshSatisfied();

  const Instance* instance_;
  std::unique_ptr<msc::graph::OverlayEvaluator> overlay_;
  // Pair-endpoint distance rows under the current placement.
  msc::graph::ShortcutRowStore rows_;
  std::vector<std::uint8_t> pairSatisfied_;
  int satisfied_ = 0;
  // Scan index over rows_ (valid from prepareScan until add/reset).
  PairBallIndex near_;
};

/// One-shot sigma(F) without building an evaluator by hand.
double sigmaValue(const Instance& instance, const ShortcutList& placement);

}  // namespace msc::core
