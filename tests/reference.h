// Slow, obviously-correct references the tests compare the library
// against, and a helper that replays a placement through an incremental
// evaluator. None of them is on a solver path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/bounds.h"
#include "core/instance.h"
#include "core/set_function.h"
#include "core/types.h"
#include "graph/apsp.h"
#include "graph/dijkstra.h"
#include "graph/graph.h"
#include "graph/shortcut_distance.h"
#include "mc/reliability.h"
#include "mc/world_sampler.h"
#include "util/bitset.h"

namespace msc::test {

/// The textbook Dijkstra loop the library's kernel replaced, kept verbatim:
/// a lazy binary heap of (distance, node) pairs that skips stale entries
/// on pop, writing dist and parent. `target` -1 searches the whole ball of
/// radius `limit`; otherwise the loop stops once `target` is settled. The
/// kernel in graph/dijkstra.cpp must match it bit for bit.
inline msc::graph::ShortestPathTree lazyHeapDijkstra(
    const msc::graph::Graph& g, msc::graph::NodeId source, double limit,
    msc::graph::NodeId target) {
  using msc::graph::Arc;
  using msc::graph::kInfDist;
  using msc::graph::NodeId;
  using msc::graph::ShortestPathTree;
  // (distance, node) min-heap entry; stale entries are skipped on pop.
  using HeapEntry = std::pair<double, NodeId>;
  using MinHeap =
      std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

  g.checkNode(source);
  const auto n = static_cast<std::size_t>(g.nodeCount());
  ShortestPathTree tree;
  tree.dist.assign(n, kInfDist);
  tree.parent.assign(n, -1);
  tree.dist[static_cast<std::size_t>(source)] = 0.0;

  MinHeap heap;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > tree.dist[static_cast<std::size_t>(u)]) continue;  // stale
    if (target >= 0 && u == target) break;
    for (const Arc& arc : g.neighbors(u)) {
      const double nd = d + arc.length;
      if (nd > limit) continue;
      if (nd < tree.dist[static_cast<std::size_t>(arc.to)]) {
        tree.dist[static_cast<std::size_t>(arc.to)] = nd;
        tree.parent[static_cast<std::size_t>(arc.to)] = u;
        heap.push({nd, arc.to});
      }
    }
  }
  return tree;
}

/// Distance between x and y if the single length-0 edge (a, b) were added to
/// the metric in `dist` (does not modify `dist`). O(1).
inline double distanceWithZeroEdge(const msc::graph::DistanceMatrix& dist,
                                   msc::graph::NodeId x, msc::graph::NodeId y,
                                   msc::graph::NodeId a, msc::graph::NodeId b) {
  const auto ux = static_cast<std::size_t>(x);
  const auto uy = static_cast<std::size_t>(y);
  const auto ua = static_cast<std::size_t>(a);
  const auto ub = static_cast<std::size_t>(b);
  double d = dist(ux, uy);
  d = std::min(d, dist(ux, ua) + dist(ub, uy));
  d = std::min(d, dist(ux, ub) + dist(ua, uy));
  return d;
}

/// The exact distance matrix of G ∪ F from the base matrix, applying every
/// shortcut in sequence with the full-matrix relaxation. O(|F| * n^2).
inline msc::graph::DistanceMatrix distancesWithShortcuts(
    const msc::graph::DistanceMatrix& base,
    const std::vector<std::pair<msc::graph::NodeId, msc::graph::NodeId>>&
        shortcuts) {
  msc::graph::DistanceMatrix dist = base;
  for (const auto& [a, b] : shortcuts) msc::graph::applyZeroEdge(dist, a, b);
  return dist;
}

/// Distance of every pair of `instance` in the graph rebuilt with the
/// placement as length-0 edges, one Dijkstra per pair.
inline std::vector<double> pairDistancesByRebuild(
    const msc::core::Instance& instance,
    const msc::core::ShortcutList& placement) {
  msc::graph::Graph g(instance.graph().nodeCount());
  for (const msc::graph::Edge& e : instance.graph().edges()) {
    g.addEdge(e.u, e.v, e.length);
  }
  for (const msc::core::Shortcut& f : placement) g.addEdge(f.a, f.b, 0.0);
  std::vector<double> out;
  for (const msc::core::SocialPair& p : instance.pairs()) {
    out.push_back(msc::graph::dijkstraDistance(g, p.u, p.w));
  }
  return out;
}

/// sigma(F) by rebuilding the graph and rerunning Dijkstra.
inline double sigmaByRebuild(const msc::core::Instance& instance,
                             const msc::core::ShortcutList& placement) {
  int count = 0;
  for (const double d : pairDistancesByRebuild(instance, placement)) {
    if (d <= instance.distanceThreshold()) ++count;
  }
  return static_cast<double>(count);
}

/// Value of `placement` through the incremental path: reset, then add()
/// every shortcut.
inline double incrementalValue(msc::core::IncrementalEvaluator& eval,
                               const msc::core::ShortcutList& placement) {
  eval.reset();
  for (const msc::core::Shortcut& f : placement) eval.add(f);
  return eval.currentValue();
}

/// Weighted sigma(F) by rebuild: pair weights summed in ascending pair order.
inline double weightedSigmaByRebuild(const msc::core::Instance& instance,
                                     const std::vector<double>& weights,
                                     const msc::core::ShortcutList& placement) {
  const auto dists = pairDistancesByRebuild(instance, placement);
  double total = 0.0;
  for (std::size_t i = 0; i < dists.size(); ++i) {
    if (dists[i] <= instance.distanceThreshold()) total += weights[i];
  }
  return total;
}

/// Weighted mu(F) from its definition: the pairs satisfied with no
/// shortcut or through one member of F alone (oneShortcutSet), their
/// weights summed in ascending pair order.
inline double weightedMuByDefinition(const msc::core::Instance& instance,
                                     const std::vector<double>& weights,
                                     const msc::core::ShortcutList& placement) {
  const auto& pairs = instance.pairs();
  msc::util::Bitset covered(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (instance.baseSatisfied(pairs[i])) covered.set(i);
  }
  for (const msc::core::Shortcut& f : placement) {
    covered |= msc::core::oneShortcutSet(instance, f);
  }
  double total = 0.0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (covered.test(i)) total += weights[i];
  }
  return total;
}

/// Weighted nu(F) from its definition over base rows: the weights of the
/// pairs satisfied with no shortcut, plus, for every pair node within d_t
/// of an endpoint of F (ascending), half the weights of its open pairs
/// (ascending).
inline double weightedNuByDefinition(const msc::core::Instance& instance,
                                     const std::vector<double>& weights,
                                     const msc::core::ShortcutList& placement) {
  const auto& pairs = instance.pairs();
  const double dt = instance.distanceThreshold();
  double total = 0.0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (instance.baseSatisfied(pairs[i])) total += weights[i];
  }
  for (const msc::graph::NodeId x : instance.pairNodes()) {
    const auto row = instance.baseRow(x);
    bool covered = false;
    for (const msc::core::Shortcut& f : placement) {
      for (const msc::graph::NodeId v : {f.a, f.b}) {
        if (row[static_cast<std::size_t>(v)] <= dt) covered = true;
      }
    }
    if (!covered) continue;
    double weight = 0.0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (instance.baseSatisfied(pairs[i])) continue;
      if (pairs[i].u == x || pairs[i].w == x) weight += 0.5 * weights[i];
    }
    total += weight;
  }
  return total;
}

/// The propagating Monte-Carlo gain probe that mc::ReliabilityEvaluator's
/// closed form replaced. It keeps reach planes per distinct min-endpoint
/// source (planes[v] = worlds where the source reaches v) and prices a
/// trial shortcut by re-running the BFS fixpoint
///     reach[y] |= reach[x] & plane(x, y)
/// into a per-call copy-on-write overlay of the planes it changes.
class PropagatingMcProbe {
 public:
  /// `minCount` is the maintained threshold in reached worlds (the
  /// evaluator under test reports its own as maintainThreshold()).
  PropagatingMcProbe(const msc::core::Instance& instance,
                     const msc::mc::WorldSet& worlds,
                     msc::mc::Objective objective, std::size_t minCount)
      : objective_(objective),
        worlds_(static_cast<std::size_t>(worlds.worlds())),
        minCount_(minCount) {
    const auto& g = instance.graph();
    const auto n = static_cast<std::size_t>(g.nodeCount());
    adjacency_.resize(n);
    const auto edges = g.edges();
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const msc::util::Bitset* plane = &worlds.edgePlane(e);
      adjacency_[static_cast<std::size_t>(edges[e].u)].push_back(
          {edges[e].v, plane});
      adjacency_[static_cast<std::size_t>(edges[e].v)].push_back(
          {edges[e].u, plane});
    }
    for (const msc::core::SocialPair& p : instance.pairs()) {
      const msc::graph::NodeId s = std::min(p.u, p.w);
      std::size_t si = 0;
      while (si < sources_.size() && sources_[si].source != s) ++si;
      if (si == sources_.size()) {
        sources_.push_back({s, std::vector<msc::util::Bitset>(
                                   n, msc::util::Bitset(worlds_))});
        sources_.back().planes[static_cast<std::size_t>(s)].setAll();
        propagate(sources_.back().planes, {s});
      }
      pairSource_.push_back(si);
      pairTarget_.push_back(std::max(p.u, p.w));
    }
  }

  void add(const msc::core::Shortcut& f) {
    adjacency_[static_cast<std::size_t>(f.a)].push_back({f.b, nullptr});
    adjacency_[static_cast<std::size_t>(f.b)].push_back({f.a, nullptr});
    for (auto& sr : sources_) propagate(sr.planes, {f.a, f.b});
  }

  double currentValue() const {
    std::size_t total = 0;
    int maintained = 0;
    for (std::size_t i = 0; i < pairSource_.size(); ++i) {
      const std::size_t c = sources_[pairSource_[i]]
                                .planes[static_cast<std::size_t>(pairTarget_[i])]
                                .count();
      total += c;
      if (c >= minCount_) ++maintained;
    }
    if (objective_ == msc::mc::Objective::MaintainedCount) {
      return static_cast<double>(maintained);
    }
    return static_cast<double>(total) / static_cast<double>(worlds_);
  }

  double gainIfAdd(const msc::core::Shortcut& f) const {
    std::size_t total = 0;
    int maintained = 0;
    std::size_t newTotal = 0;
    int newMaintained = 0;
    std::unordered_map<msc::graph::NodeId, msc::util::Bitset> mod;
    std::vector<msc::graph::NodeId> frontier;
    std::vector<std::uint8_t> queued(adjacency_.size(), 0);
    for (std::size_t si = 0; si < sources_.size(); ++si) {
      const auto& planes = sources_[si].planes;
      mod.clear();
      const auto cur = [&](msc::graph::NodeId x) -> const msc::util::Bitset& {
        const auto it = mod.find(x);
        return it != mod.end() ? it->second
                               : planes[static_cast<std::size_t>(x)];
      };
      // Relaxes from -> to through `plane` (nullptr = always up), copying
      // the target plane on its first change only.
      const auto relax = [&](msc::graph::NodeId from, msc::graph::NodeId to,
                             const msc::util::Bitset* plane) {
        msc::util::Bitset scratch = cur(to);
        if (relaxInto(cur(from), plane, scratch)) {
          mod[to] = std::move(scratch);
          if (!queued[static_cast<std::size_t>(to)]) {
            queued[static_cast<std::size_t>(to)] = 1;
            frontier.push_back(to);
          }
        }
      };
      relax(f.a, f.b, nullptr);
      relax(f.b, f.a, nullptr);
      while (!frontier.empty()) {
        const msc::graph::NodeId x = frontier.back();
        frontier.pop_back();
        queued[static_cast<std::size_t>(x)] = 0;
        for (const OutArc& arc : adjacency_[static_cast<std::size_t>(x)]) {
          relax(x, arc.to, arc.plane);
        }
        // The trial shortcut carries newly reached worlds across too.
        if (x == f.a) relax(f.a, f.b, nullptr);
        if (x == f.b) relax(f.b, f.a, nullptr);
      }
      for (std::size_t i = 0; i < pairSource_.size(); ++i) {
        if (pairSource_[i] != si) continue;
        const std::size_t before =
            planes[static_cast<std::size_t>(pairTarget_[i])].count();
        const std::size_t after = cur(pairTarget_[i]).count();
        total += before;
        newTotal += after;
        if (before >= minCount_) ++maintained;
        if (after >= minCount_) ++newMaintained;
      }
    }
    if (objective_ == msc::mc::Objective::MaintainedCount) {
      return static_cast<double>(newMaintained - maintained);
    }
    return static_cast<double>(newTotal - total) /
           static_cast<double>(worlds_);
  }

 private:
  struct OutArc {
    msc::graph::NodeId to = 0;
    const msc::util::Bitset* plane = nullptr;  // nullptr: always up
  };
  struct SourceReach {
    msc::graph::NodeId source = 0;
    std::vector<msc::util::Bitset> planes;
  };

  /// reach[y] |= reach[x] & plane; returns whether any world was added.
  static bool relaxInto(const msc::util::Bitset& rx,
                        const msc::util::Bitset* plane,
                        msc::util::Bitset& ry) {
    bool changed = false;
    for (std::size_t w = 0; w < rx.wordCount(); ++w) {
      const std::uint64_t gate = plane ? plane->word(w) : ~0ULL;
      const std::uint64_t add = rx.word(w) & gate & ~ry.word(w);
      if (add != 0) {
        ry.setWord(w, ry.word(w) | add);
        changed = true;
      }
    }
    return changed;
  }

  /// Committed BFS fixpoint from `seeds`.
  void propagate(std::vector<msc::util::Bitset>& planes,
                 const std::vector<msc::graph::NodeId>& seeds) const {
    std::vector<msc::graph::NodeId> frontier(seeds);
    while (!frontier.empty()) {
      const msc::graph::NodeId x = frontier.back();
      frontier.pop_back();
      for (const OutArc& arc : adjacency_[static_cast<std::size_t>(x)]) {
        if (relaxInto(planes[static_cast<std::size_t>(x)], arc.plane,
                      planes[static_cast<std::size_t>(arc.to)])) {
          frontier.push_back(arc.to);
        }
      }
    }
  }

  msc::mc::Objective objective_;
  std::size_t worlds_;
  std::size_t minCount_;
  std::vector<std::vector<OutArc>> adjacency_;
  std::vector<SourceReach> sources_;
  std::vector<std::size_t> pairSource_;
  std::vector<msc::graph::NodeId> pairTarget_;
};

}  // namespace msc::test
