// Sampled multi-path reliability objective over a WorldSet.
//
// For a pair {u, w}, the true reliability R(u, w) is the probability that u
// reaches w when every edge fails independently — the quantity the paper's
// surrogate lower-bounds with the single best path. The evaluator estimates
// R̂(u, w) = (#worlds where u reaches w) / W by propagating reachability
// word-parallel across all W worlds simultaneously: per source node it
// keeps one W-bit plane per graph node ("worlds where the source reaches
// this node") and runs a BFS fixpoint where relaxing an arc x→y is
//     reach[y] |= reach[x] & plane(x, y)
// — 64 worlds per word instruction. Placement shortcuts have failure
// probability 0, so their plane is all-ones. Every pair endpoint is a
// source; only reset() and add() run the fixpoint, while a gain probe
// combines both endpoints' committed planes in closed form.
//
// The maintained-count objective σ̂ = #{pairs : R̂ ≥ 1 − p_t} is the MC
// analogue of sigma; the soft total-reliability objective Σ R̂ breaks σ̂'s
// plateaus (a candidate can raise a pair's reliability without crossing
// the threshold) and is used by the sandwich-style solver. Both are exact
// integer counts divided by W, so parallel gain scans are bit-identical to
// sequential ones (ALGORITHMS.md §10, §17).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/set_function.h"
#include "mc/world_sampler.h"
#include "util/bitset.h"

namespace msc::mc {

/// What the evaluator maximizes.
enum class Objective {
  /// σ̂: number of pairs with R̂ ≥ 1 − p_t (integer-valued).
  MaintainedCount,
  /// Σ_pairs R̂: exact multiples of 1/W; monotone strictly increasing in
  /// every reachability improvement, hence plateau-free.
  TotalReliability,
};

/// Per-pair estimate with a normal-approximation confidence half-width.
struct PairReliability {
  core::SocialPair pair;
  double reliability = 0.0;  ///< R̂ = reachedWorlds / W
  double halfWidth = 0.0;    ///< z * sqrt(R̂ (1 − R̂) / W)
  bool maintained = false;   ///< R̂ ≥ 1 − p_t (counted in σ̂)
  /// The threshold lies inside [R̂ − halfWidth, R̂ + halfWidth]: the
  /// maintained verdict for this pair could flip under resampling.
  bool uncertain = false;
};

class ReliabilityEvaluator final : public core::SetFunction,
                                   public core::IncrementalEvaluator {
 public:
  /// `instance` supplies the pairs and the threshold (p_t is recovered
  /// from d_t via lengthToFailure); `worlds` must be sampled over
  /// instance.graph(). Both must outlive the evaluator.
  ReliabilityEvaluator(const core::Instance& instance, const WorldSet& worlds,
                       Objective objective = Objective::MaintainedCount);

  // --- SetFunction ---
  double value(const core::ShortcutList& placement) const override;
  std::string name() const override {
    return objective_ == Objective::MaintainedCount ? "mc_sigma"
                                                    : "mc_total_reliability";
  }

  // --- IncrementalEvaluator ---
  void reset() override;
  double currentValue() const override;
  /// Exact closed form, no propagation: adding (a, b) connects pair
  /// {s, t} in the worlds P_s[t] | (P_s[a] & P_t[b]) | (P_s[b] & P_t[a]),
  /// so each pair costs W/64 word operations. Reads shared planes only,
  /// hence safe against concurrent gainIfAdd calls (the parallel gain
  /// scan's requirement).
  double gainIfAdd(const core::Shortcut& f) const override;
  void add(const core::Shortcut& f) override;

  // --- introspection on the current incremental state ---
  /// σ̂ under the current placement (regardless of objective).
  int maintainedCount() const noexcept { return maintained_; }
  /// Worlds in which pair `pairIndex` is connected.
  std::size_t reachedWorlds(int pairIndex) const {
    return reachCount_.at(static_cast<std::size_t>(pairIndex));
  }
  /// Per-pair estimates at confidence multiplier `z` (1.96 ≈ 95%).
  std::vector<PairReliability> pairEstimates(double z = 1.96) const;
  /// Number of pairs whose maintained verdict is uncertain at `z`.
  int uncertainCount(double z = 1.96) const;

  int worldCount() const noexcept { return worlds_->worlds(); }
  /// Minimum reached-world count for a pair to count as maintained:
  /// ceil(W * (1 − p_t)), with a tolerance so an exactly-at-threshold
  /// count qualifies despite floating-point rounding.
  std::size_t maintainThreshold() const noexcept { return minCount_; }
  const core::Instance& instance() const noexcept { return *instance_; }

 private:
  struct OutArc {
    msc::graph::NodeId to = 0;
    /// Presence plane of the edge; nullptr means always-up (shortcut).
    const msc::util::Bitset* plane = nullptr;
  };

  /// Reachability planes of one BFS source: planes[v] = worlds where the
  /// source reaches v.
  struct SourceReach {
    msc::graph::NodeId source = 0;
    std::vector<msc::util::Bitset> planes;
  };

  void propagate(SourceReach& sr,
                 const std::vector<msc::graph::NodeId>& seeds);
  void rebuildFrom(const std::vector<msc::graph::NodeId>& seeds);
  void refreshCounts();
  /// Offers an estimator-convergence snapshot (σ̂, uncertain pairs,
  /// half-width spread) to the bound ProgressReporter, if any.
  void reportProgress() const;

  const core::Instance* instance_;
  const WorldSet* worlds_;
  Objective objective_;

  std::vector<std::vector<OutArc>> adjacency_;  // base edges + added shortcuts
  /// One source per distinct pair endpoint.
  std::vector<SourceReach> sources_;
  /// Pair i = {s, t}, s < t, has sources s = sources_[pairSource_[i]] and
  /// t = sources_[pairTargetSource_[i]]; its count reads s's plane at t.
  std::vector<std::size_t> pairSource_;
  std::vector<std::size_t> pairTargetSource_;

  core::ShortcutList placement_;
  std::vector<std::size_t> reachCount_;  // per pair: worlds connected
  std::size_t totalReached_ = 0;         // sum of reachCount_
  int maintained_ = 0;                   // σ̂
  std::size_t minCount_ = 0;
};

/// Exact per-pair multi-path reliability by enumerating all 2^m possible
/// worlds of the base graph (placement shortcuts are always up). The test
/// suite cross-checks sampled R̂ against this; m = graph.edgeCount() must
/// be ≤ 20 or std::invalid_argument is thrown.
std::vector<double> exactPairReliabilities(const core::Instance& instance,
                                           const core::ShortcutList& placement);

/// Exact multi-path σ: #{pairs : R(u, w) ≥ 1 − p_t} via full enumeration.
int exactSigma(const core::Instance& instance,
               const core::ShortcutList& placement);

}  // namespace msc::mc
