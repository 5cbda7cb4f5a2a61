#include "core/instance.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "wireless/link_model.h"

namespace msc::core {

namespace {

void validatePairsAndThreshold(const msc::graph::Graph& g,
                               const std::vector<SocialPair>& pairs,
                               double distanceThreshold) {
  if (!(distanceThreshold >= 0.0)) {
    throw std::invalid_argument("Instance: distance threshold must be >= 0");
  }
  for (const SocialPair& p : pairs) {
    g.checkNode(p.u);
    g.checkNode(p.w);
    if (p.u == p.w) {
      throw std::invalid_argument("Instance: social pair with equal endpoints");
    }
  }
}

std::vector<NodeId> dedupedPairNodes(const std::vector<SocialPair>& pairs) {
  std::vector<NodeId> nodes;
  nodes.reserve(pairs.size() * 2);
  for (const SocialPair& p : pairs) {
    nodes.push_back(p.u);
    nodes.push_back(p.w);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

}  // namespace

void Instance::validateAndPrefetch(int threads) {
  validatePairsAndThreshold(*graph_, pairs_, distanceThreshold_);
  pairNodes_ = dedupedPairNodes(pairs_);
  // Pin every row span the oracle hands out for as long as this instance
  // (or any copy) is alive — under a row budget, evicted rows are parked
  // instead of freed, so evaluator-held spans never dangle.
  rowLease_ = oracle_->acquireRowLease();
  // Every evaluator starts from the pair-node rows; one parallel burst
  // here keeps their constructors off the Dijkstra path and makes later
  // reads deterministic cache hits.
  oracle_->prefetchRowsWithin(pairNodes_, distanceThreshold_, threads);
}

Instance::Instance(msc::graph::Graph g, std::vector<SocialPair> pairs,
                   double distanceThreshold, const InstanceOptions& options)
    : pairs_(std::move(pairs)), distanceThreshold_(distanceThreshold) {
  auto owned = std::make_shared<msc::graph::Graph>(std::move(g));
  graph_ = owned;
  // Fail on bad pairs/threshold before paying for the distance build.
  validatePairsAndThreshold(*graph_, pairs_, distanceThreshold_);
  oracle_ = std::make_shared<const msc::graph::PairCentricOracle>(
      std::move(owned),
      msc::graph::PairCentricOracle::Config{
          .landmarks = options.landmarkCount,
          .threads = options.threads,
          .rowBudgetBytes = options.oracleRowBudgetBytes});
  validateAndPrefetch(options.threads);
}

Instance::Instance(std::shared_ptr<const msc::graph::Graph> graph,
                   std::shared_ptr<const msc::graph::DistanceOracle> oracle,
                   std::vector<SocialPair> pairs, double distanceThreshold,
                   int threads)
    : graph_(std::move(graph)),
      oracle_(std::move(oracle)),
      pairs_(std::move(pairs)),
      distanceThreshold_(distanceThreshold) {
  if (!graph_ || !oracle_) {
    throw std::invalid_argument("Instance: null graph or distance oracle");
  }
  if (oracle_->nodeCount() != graph_->nodeCount()) {
    throw std::invalid_argument(
        "Instance: distance oracle shape does not match the graph");
  }
  validateAndPrefetch(threads);
}

Instance Instance::fromFailureThreshold(msc::graph::Graph g,
                                        std::vector<SocialPair> pairs,
                                        double failureThreshold,
                                        const InstanceOptions& options) {
  return Instance(std::move(g), std::move(pairs),
                  msc::wireless::failureThresholdToDistance(failureThreshold),
                  options);
}

Instance Instance::fromFailureThreshold(msc::graph::Graph g,
                                        std::vector<SocialPair> pairs,
                                        double failureThreshold,
                                        int threads) {
  return fromFailureThreshold(std::move(g), std::move(pairs), failureThreshold,
                              InstanceOptions{.threads = threads});
}

namespace {

std::vector<SocialPair> samplePairsFiltered(
    const msc::graph::Graph& g, const msc::graph::DistanceMatrix& dist, int m,
    double distanceThreshold, util::Rng& rng, bool requireConnected,
    const char* what) {
  if (m < 0) throw std::invalid_argument("sampleImportantPairs: m < 0");
  const int n = g.nodeCount();
  std::vector<SocialPair> eligible;
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      const double d = dist(static_cast<std::size_t>(i),
                            static_cast<std::size_t>(j));
      if (d <= distanceThreshold) continue;  // already maintained
      if (requireConnected && d == msc::graph::kInfDist) continue;
      eligible.push_back({i, j});
    }
  }
  if (static_cast<int>(eligible.size()) < m) {
    throw std::runtime_error(std::string(what) +
                             ": not enough eligible node pairs");
  }
  const auto picks =
      rng.sampleWithoutReplacement(eligible.size(), static_cast<std::size_t>(m));
  std::vector<SocialPair> out;
  out.reserve(static_cast<std::size_t>(m));
  for (const std::size_t idx : picks) out.push_back(eligible[idx]);
  return out;
}

}  // namespace

std::vector<SocialPair> sampleImportantPairs(
    const msc::graph::Graph& g, const msc::graph::DistanceMatrix& dist, int m,
    double distanceThreshold, util::Rng& rng) {
  return samplePairsFiltered(g, dist, m, distanceThreshold, rng,
                             /*requireConnected=*/false,
                             "sampleImportantPairs");
}

std::vector<SocialPair> sampleImportantPairsConnected(
    const msc::graph::Graph& g, const msc::graph::DistanceMatrix& dist, int m,
    double distanceThreshold, util::Rng& rng) {
  return samplePairsFiltered(g, dist, m, distanceThreshold, rng,
                             /*requireConnected=*/true,
                             "sampleImportantPairsConnected");
}

std::vector<SocialPair> sampleCommonNodePairs(
    const msc::graph::Graph& g, const msc::graph::DistanceMatrix& dist,
    NodeId commonNode, int m, double distanceThreshold, util::Rng& rng) {
  g.checkNode(commonNode);
  if (m < 0) throw std::invalid_argument("sampleCommonNodePairs: m < 0");
  std::vector<NodeId> eligible;
  for (NodeId w = 0; w < g.nodeCount(); ++w) {
    if (w == commonNode) continue;
    if (dist(static_cast<std::size_t>(commonNode), static_cast<std::size_t>(w)) >
        distanceThreshold) {
      eligible.push_back(w);
    }
  }
  if (static_cast<int>(eligible.size()) < m) {
    throw std::runtime_error("sampleCommonNodePairs: not enough eligible nodes");
  }
  const auto picks =
      rng.sampleWithoutReplacement(eligible.size(), static_cast<std::size_t>(m));
  std::vector<SocialPair> out;
  out.reserve(static_cast<std::size_t>(m));
  for (const std::size_t idx : picks) out.push_back({commonNode, eligible[idx]});
  return out;
}

}  // namespace msc::core
