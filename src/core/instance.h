// MSC problem instance (paper §III-C).
//
// An instance bundles the communication graph, a distance oracle over it,
// the important social pairs S, and the distance requirement
// d_t = -ln(1 - p_t). Every algorithm in this library consumes instances;
// they are immutable after construction so evaluators can safely share them.
//
// Distances come from a row-cache oracle (graph/distance_oracle.h) that
// builds only the rows an instance touches, on demand. Every objective
// only tests sums of base distances against d_t, so the evaluators read
// rows exact within d_t (baseRow), each a Dijkstra bounded at d_t: the
// rows of pair endpoints and of placed shortcut endpoints, never all n.
// Construction prefetches the pair-node rows so every evaluator starts
// from cached data; that prefetch is the instance's distance build (the
// APSP phase of docs/ALGORITHMS.md §14).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/types.h"
#include "graph/apsp.h"
#include "graph/distance_oracle.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace msc::core {

/// Named construction knobs for Instance — the builder-style alternative
/// to the positional constructors, so new options stop growing their
/// signatures. Construct with designated initializers:
///     Instance(g, pairs, dt, {.threads = 8});
struct InstanceOptions {
  /// Worker threads for the pair-node row prefetch; 0 = all hardware
  /// threads. Values are identical for any count.
  int threads = 1;

  /// Row-cache byte budget (0 = unbounded).
  /// Defaults to the MSC_ORACLE_ROWS_MB environment knob. Evicted rows
  /// re-materialize bit-identically, so results never depend on it.
  std::size_t oracleRowBudgetBytes = msc::graph::defaultOracleRowBudgetBytes();
};

class Instance {
 public:
  /// Takes ownership of the graph and builds the distance oracle per
  /// `options` (pair-node rows are prefetched eagerly). Validates pair
  /// endpoints and that distanceThreshold >= 0.
  Instance(msc::graph::Graph g, std::vector<SocialPair> pairs,
           double distanceThreshold, const InstanceOptions& options);

  /// Positional compatibility form: default options, `threads` workers.
  Instance(msc::graph::Graph g, std::vector<SocialPair> pairs,
           double distanceThreshold, int threads = 1)
      : Instance(std::move(g), std::move(pairs), distanceThreshold,
                 InstanceOptions{.threads = threads}) {}

  /// Convenience: threshold given as a path-failure probability p_t.
  static Instance fromFailureThreshold(msc::graph::Graph g,
                                       std::vector<SocialPair> pairs,
                                       double failureThreshold,
                                       const InstanceOptions& options);
  static Instance fromFailureThreshold(msc::graph::Graph g,
                                       std::vector<SocialPair> pairs,
                                       double failureThreshold,
                                       int threads = 1);

  /// Shares an existing graph and distance oracle instead of recomputing —
  /// the serving cache (src/serve) assembles instances this way so
  /// repeated solves on the same topology share its cached rows. The
  /// oracle must describe `graph` (the node count is validated, the values
  /// are trusted); pair/threshold validation matches the computing
  /// constructor, so the result is indistinguishable from it. `threads`
  /// parallelizes the pair-node row prefetch.
  Instance(std::shared_ptr<const msc::graph::Graph> graph,
           std::shared_ptr<const msc::graph::DistanceOracle> oracle,
           std::vector<SocialPair> pairs, double distanceThreshold,
           int threads = 1);

  const msc::graph::Graph& graph() const noexcept { return *graph_; }

  /// The distance oracle. Evaluators read base distances through this
  /// (pair-node rows are prefetched at construction).
  const msc::graph::DistanceOracle& distanceOracle() const noexcept {
    return *oracle_;
  }
  std::shared_ptr<const msc::graph::DistanceOracle> distanceOracleShared()
      const noexcept {
    return oracle_;
  }

  const std::vector<SocialPair>& pairs() const noexcept { return pairs_; }
  int pairCount() const noexcept { return static_cast<int>(pairs_.size()); }
  double distanceThreshold() const noexcept { return distanceThreshold_; }

  /// Pair-distance in the base graph (no shortcuts); exact at any value.
  /// An entry beyond d_t costs an early-exit Dijkstra.
  double baseDistance(const SocialPair& p) const {
    return oracle_->distance(p.u, p.w);
  }

  /// Base distance row of `v`, exact within d_t: every entry <= d_t is the
  /// base distance, every other entry is > d_t (+inf for a row built
  /// bounded). The row every objective reads; same span lifetime as
  /// DistanceOracle::distancesWithin (this instance holds the lease).
  std::span<const double> baseRow(NodeId v) const {
    return oracle_->distancesWithin(v, distanceThreshold_);
  }

  /// Whether a pair already meets the requirement with no shortcuts. Reads
  /// the pair's base row of min(u, w), the entry distance() would serve.
  bool baseSatisfied(const SocialPair& p) const {
    const auto t = static_cast<std::size_t>(std::max(p.u, p.w));
    return baseRow(std::min(p.u, p.w))[t] <= distanceThreshold_;
  }

  /// Deduplicated list of nodes that appear in some pair, ascending.
  const std::vector<NodeId>& pairNodes() const noexcept { return pairNodes_; }

 private:
  void validateAndPrefetch(int threads);

  // shared_ptr so Instance stays cheaply copyable (evaluators keep
  // references into it; the experiment runners copy instances around).
  std::shared_ptr<const msc::graph::Graph> graph_;
  std::shared_ptr<const msc::graph::DistanceOracle> oracle_;
  std::vector<SocialPair> pairs_;
  std::vector<NodeId> pairNodes_;
  double distanceThreshold_ = 0.0;
  // Row lease (see DistanceOracle::acquireRowLease): while any copy of
  // this instance is alive, rows the oracle hands to its evaluators stay
  // valid even if evicted under a row budget. Declared after oracle_ so it
  // is released before the oracle reference goes away.
  std::shared_ptr<void> rowLease_;
};

/// Samples `m` important social pairs uniformly from the node pairs whose
/// base shortest-path failure probability exceeds the threshold (paper
/// §VII-A3: "randomly selected from the node pairs with path failure
/// probability larger than p_t"). Disconnected pairs qualify (failure 1).
/// Throws std::runtime_error if fewer than m such pairs exist.
std::vector<SocialPair> sampleImportantPairs(
    const msc::graph::Graph& g, const msc::graph::DistanceMatrix& dist,
    int m, double distanceThreshold, util::Rng& rng);

/// Variant of sampleImportantPairs that only samples pairs within one
/// connected component (useful when disconnected pairs would be
/// unrealistic, e.g. the Gowalla-style networks).
std::vector<SocialPair> sampleImportantPairsConnected(
    const msc::graph::Graph& g, const msc::graph::DistanceMatrix& dist,
    int m, double distanceThreshold, util::Rng& rng);

/// Samples pairs that all share `commonNode` (the MSC-CN special case):
/// pairs {commonNode, w} with base distance above the threshold.
std::vector<SocialPair> sampleCommonNodePairs(
    const msc::graph::Graph& g, const msc::graph::DistanceMatrix& dist,
    NodeId commonNode, int m, double distanceThreshold, util::Rng& rng);

}  // namespace msc::core
