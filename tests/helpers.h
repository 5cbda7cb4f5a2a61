// Shared fixtures/builders for the test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/types.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "gen/gowalla.h"
#include "gen/grid.h"
#include "gen/random_geometric.h"
#include "gen/watts_strogatz.h"
#include "graph/apsp.h"
#include "graph/distance_oracle.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace msc::test {

/// Path graph 0 - 1 - ... - (n-1) with unit edge lengths.
inline msc::graph::Graph lineGraph(int n, double edgeLength = 1.0) {
  msc::graph::Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.addEdge(i, i + 1, edgeLength);
  return g;
}

/// Cycle graph with unit edge lengths.
inline msc::graph::Graph cycleGraph(int n, double edgeLength = 1.0) {
  msc::graph::Graph g = lineGraph(n, edgeLength);
  if (n >= 3) g.addEdge(n - 1, 0, edgeLength);
  return g;
}

/// Random sparse graph for property tests (may be disconnected).
inline msc::graph::Graph randomGraph(int n, double p, std::uint64_t seed) {
  msc::gen::ErdosRenyiConfig cfg;
  cfg.nodes = n;
  cfg.edgeProbability = p;
  cfg.lengthMin = 0.1;
  cfg.lengthMax = 1.0;
  cfg.seed = seed;
  return msc::gen::erdosRenyi(cfg);
}

/// Random MSC instance: ER graph + pairs sampled among currently
/// unsatisfied node pairs (falls back to any distinct pairs when none are
/// eligible, so tiny graphs still produce an instance).
inline msc::core::Instance randomInstance(int n, int m, double dt,
                                          std::uint64_t seed) {
  msc::graph::Graph g = randomGraph(n, 3.0 / n, seed);
  const auto dist = msc::graph::allPairsDistances(g);
  msc::util::Rng rng(seed ^ 0xabcdULL);
  std::vector<msc::core::SocialPair> pairs;
  try {
    pairs = msc::core::sampleImportantPairs(g, dist, m, dt, rng);
  } catch (const std::runtime_error&) {
    for (int i = 0; i < m && 2 * i + 1 < n; ++i) {
      pairs.push_back({2 * i, 2 * i + 1});
    }
  }
  return msc::core::Instance(std::move(g), std::move(pairs), dt);
}

struct GenCase {
  std::string name;
  msc::graph::Graph graph;
};

/// One representative topology per src/gen generator, sized so the dense
/// path stays cheap but paths are several edges long (where row directions
/// differ in the last ulp).
inline std::vector<GenCase> generatorSweep() {
  std::vector<GenCase> cases;
  {
    msc::gen::GridConfig cfg;
    cfg.width = 7;
    cfg.height = 5;
    cases.push_back({"grid", msc::gen::grid(cfg).graph});
  }
  {
    msc::gen::RandomGeometricConfig cfg;
    cfg.nodes = 60;
    cfg.radius = 0.2;
    cfg.seed = 3;
    cases.push_back({"random_geometric", msc::gen::randomGeometric(cfg).graph});
  }
  {
    msc::gen::ErdosRenyiConfig cfg;
    cfg.nodes = 50;
    cfg.edgeProbability = 0.08;
    cfg.seed = 5;
    cases.push_back({"erdos_renyi", msc::gen::erdosRenyi(cfg)});
  }
  {
    msc::gen::WattsStrogatzConfig cfg;
    cfg.nodes = 48;
    cfg.neighbors = 2;
    cfg.seed = 7;
    cases.push_back({"watts_strogatz", msc::gen::wattsStrogatz(cfg)});
  }
  {
    msc::gen::BarabasiAlbertConfig cfg;
    cfg.nodes = 50;
    cfg.attachEdges = 2;
    cfg.seed = 11;
    cases.push_back({"barabasi_albert", msc::gen::barabasiAlbert(cfg)});
  }
  {
    msc::gen::GowallaConfig cfg;
    cfg.users = 60;
    cfg.anchors = 4;
    cases.push_back({"gowalla_like", msc::gen::gowallaLike(cfg).graph});
  }
  return cases;
}

/// Deterministic pair sample (u < w): endpoints spread across the node
/// range so some pairs are far (unsatisfied at a threshold) and some near.
inline std::vector<msc::core::SocialPair> samplePairs(
    const msc::graph::Graph& g, int m, std::uint64_t seed) {
  msc::util::Rng rng(seed);
  const auto n = static_cast<std::uint64_t>(g.nodeCount());
  std::vector<msc::core::SocialPair> pairs;
  while (static_cast<int>(pairs.size()) < m) {
    const auto u = static_cast<msc::graph::NodeId>(rng.below(n));
    const auto w = static_cast<msc::graph::NodeId>(rng.below(n));
    if (u == w) continue;
    pairs.push_back({std::min(u, w), std::max(u, w)});
  }
  return pairs;
}

/// A threshold that splits the sampled pairs: exactly the median finite
/// pair distance, so sigma is neither 0 nor m trivially. Sitting on a pair
/// distance is deliberate: bounded and full rows serve the same bits, so
/// even the d <= dt comparison at the boundary must agree.
inline double medianThreshold(const msc::graph::DistanceOracle& oracle,
                              const std::vector<msc::core::SocialPair>& pairs) {
  std::vector<double> finite;
  for (const auto& p : pairs) {
    const double d = oracle.distance(p.u, p.w);
    if (d != msc::graph::kInfDist) finite.push_back(d);
  }
  if (finite.empty()) return 1.0;
  std::sort(finite.begin(), finite.end());
  return finite[finite.size() / 2];
}

/// Full-row reference oracle: an unbounded oracle whose every full row
/// materialize() has built and cached, so rows and point queries read
/// resident full rows.
inline std::shared_ptr<const msc::graph::PairCentricOracle> allRowsOracle(
    std::shared_ptr<const msc::graph::Graph> graph, int threads = 1) {
  auto oracle = std::make_shared<const msc::graph::PairCentricOracle>(
      std::move(graph),
      msc::graph::PairCentricOracle::Config{.threads = threads});
  (void)oracle->materialize();
  return oracle;
}

/// Forwards everything but distancesWithin / prefetchRowsWithin, whose
/// DistanceOracle defaults then serve full rows: behind it an Instance
/// reads full rows instead of d_t-bounded ones.
class FullRowOracle final : public msc::graph::DistanceOracle {
 public:
  explicit FullRowOracle(
      std::shared_ptr<const msc::graph::DistanceOracle> inner)
      : inner_(std::move(inner)) {}
  int nodeCount() const noexcept override { return inner_->nodeCount(); }
  double distance(msc::graph::NodeId x, msc::graph::NodeId y) const override {
    return inner_->distance(x, y);
  }
  std::span<const double> distancesFrom(msc::graph::NodeId v) const override {
    return inner_->distancesFrom(v);
  }
  void prefetchRows(std::span<const msc::graph::NodeId> sources,
                    int threads) const override {
    inner_->prefetchRows(sources, threads);
  }
  const msc::graph::DistanceMatrix& materialize() const override {
    return inner_->materialize();
  }
  std::size_t residentBytes() const noexcept override {
    return inner_->residentBytes();
  }
  const char* mode() const noexcept override { return inner_->mode(); }
  msc::graph::OracleStats stats() const override { return inner_->stats(); }
  std::shared_ptr<void> acquireRowLease() const override {
    return inner_->acquireRowLease();
  }

 private:
  std::shared_ptr<const msc::graph::DistanceOracle> inner_;
};

/// The full-row side of a bounded-vs-full comparison: an instance of
/// (g, pairs, dt) over a FullRowOracle of an unbounded lazy oracle,
/// `threads` workers.
inline msc::core::Instance fullRowInstance(
    const msc::graph::Graph& g, std::vector<msc::core::SocialPair> pairs,
    double dt, int threads = 1) {
  auto graph = std::make_shared<const msc::graph::Graph>(g);
  auto oracle = std::make_shared<const FullRowOracle>(
      std::make_shared<const msc::graph::PairCentricOracle>(
          graph, msc::graph::PairCentricOracle::Config{.threads = threads}));
  return msc::core::Instance(std::move(graph), std::move(oracle),
                             std::move(pairs), dt, threads);
}

/// Random shortcut set of the given size over nodes [0, n).
inline msc::core::ShortcutList randomPlacement(int n, int size,
                                               msc::util::Rng& rng) {
  msc::core::ShortcutList out;
  while (static_cast<int>(out.size()) < size) {
    const auto a = static_cast<msc::graph::NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    const auto b = static_cast<msc::graph::NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    if (a == b) continue;
    const auto f = msc::core::Shortcut::make(a, b);
    if (!msc::core::contains(out, f)) out.push_back(f);
  }
  return out;
}

}  // namespace msc::test
