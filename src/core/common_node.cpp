#include "core/common_node.h"

#include <span>
#include <stdexcept>
#include <vector>

#include "core/candidates.h"
#include "core/greedy.h"
#include "core/sigma.h"
#include "util/bitset.h"

namespace msc::core {

bool allPairsShareNode(const Instance& instance, NodeId commonNode) {
  for (const SocialPair& p : instance.pairs()) {
    if (p.u != commonNode && p.w != commonNode) return false;
  }
  return true;
}

NodeId findCommonNode(const Instance& instance) {
  const auto& pairs = instance.pairs();
  if (pairs.empty()) return -1;
  for (const NodeId cand : {pairs[0].u, pairs[0].w}) {
    if (allPairsShareNode(instance, cand)) return cand;
  }
  return -1;
}

namespace {

void checkCommonNode(const Instance& instance, NodeId commonNode, int k) {
  if (k < 0) throw std::invalid_argument("solveCommonNode: negative budget");
  instance.graph().checkNode(commonNode);
  if (!allPairsShareNode(instance, commonNode)) {
    throw std::invalid_argument(
        "solveCommonNode: not all pairs share the given common node");
  }
}

}  // namespace

CommonNodeResult solveCommonNodeCoverage(const Instance& instance,
                                         NodeId commonNode, int k) {
  checkCommonNode(instance, commonNode, k);
  const auto& pairs = instance.pairs();
  const double dt = instance.distanceThreshold();
  const int n = instance.graph().nodeCount();

  // C_v: pairs {u, w} with dist(v, w) <= d_t, where w is the non-common
  // endpoint. Base-satisfied pairs are covered from the start. Built by
  // sweeping the non-common endpoints' distance rows (all pair nodes, so
  // already cached in the oracle) — the oracle never serves a column
  // read.
  std::vector<util::Bitset> coverage(static_cast<std::size_t>(n),
                                     util::Bitset(pairs.size()));
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const NodeId w = (pairs[i].u == commonNode) ? pairs[i].w : pairs[i].u;
    const std::span<const double> row = instance.baseRow(w);
    for (NodeId v = 0; v < n; ++v) {
      if (row[static_cast<std::size_t>(v)] <= dt) {
        coverage[static_cast<std::size_t>(v)].set(i);
      }
    }
  }
  util::Bitset covered(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (instance.baseSatisfied(pairs[i])) covered.set(i);
  }

  CommonNodeResult result;
  for (int round = 0; round < k; ++round) {
    std::size_t bestGain = 0;
    NodeId bestV = -1;
    for (NodeId v = 0; v < n; ++v) {
      if (v == commonNode) continue;
      const std::size_t gain = covered.gainIfUnion(coverage[static_cast<std::size_t>(v)]);
      if (gain > bestGain) {
        bestGain = gain;
        bestV = v;
      }
    }
    if (bestV < 0) break;
    covered |= coverage[static_cast<std::size_t>(bestV)];
    result.placement.push_back(Shortcut::make(commonNode, bestV));
  }
  result.sigma = sigmaValue(instance, result.placement);
  return result;
}

CommonNodeResult solveCommonNodeSigmaGreedy(const Instance& instance,
                                            NodeId commonNode, int k) {
  checkCommonNode(instance, commonNode, k);
  const CandidateSet candidates =
      CandidateSet::incidentTo(instance.graph().nodeCount(), commonNode);
  SigmaEvaluator eval(instance);
  const GreedyResult greedy = greedyMaximize(eval, candidates, SolveOptions{.k = k});
  return CommonNodeResult{greedy.placement, greedy.value};
}

}  // namespace msc::core
