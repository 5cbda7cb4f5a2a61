#include "mc/reliability.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "wireless/link_model.h"

namespace msc::mc {
namespace {

using msc::graph::NodeId;
using msc::util::Bitset;

/// reach[y] |= reach[x] & plane; returns whether any world was added.
/// A null plane is the always-up shortcut plane.
bool relaxInto(const Bitset& rx, const Bitset* plane, Bitset& ry) {
  bool changed = false;
  const std::size_t nw = rx.wordCount();
  for (std::size_t w = 0; w < nw; ++w) {
    const std::uint64_t gate = plane ? plane->word(w) : ~0ULL;
    const std::uint64_t add = rx.word(w) & gate & ~ry.word(w);
    if (add != 0) {
      ry.setWord(w, ry.word(w) | add);
      changed = true;
    }
  }
  return changed;
}

/// Committed-propagation latency, one sample per reset or rebuild. gainIfAdd
/// deliberately records nothing: it is the parallel-scan hot loop.
msc::obs::Histogram& frontierHistogram() {
  static auto& hist = msc::obs::histogram("mc.frontier_seconds");
  return hist;
}

}  // namespace

ReliabilityEvaluator::ReliabilityEvaluator(const core::Instance& instance,
                                           const WorldSet& worlds,
                                           Objective objective)
    : instance_(&instance), worlds_(&worlds), objective_(objective) {
  const auto& g = instance.graph();
  if (&worlds.graph() != &g &&
      (worlds.graph().nodeCount() != g.nodeCount() ||
       worlds.graph().edgeCount() != g.edgeCount())) {
    throw std::invalid_argument(
        "ReliabilityEvaluator: WorldSet was sampled over a different graph");
  }
  const auto n = static_cast<std::size_t>(g.nodeCount());
  adjacency_.resize(n);
  const auto edges = g.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const Bitset* plane = &worlds.edgePlane(e);
    adjacency_[static_cast<std::size_t>(edges[e].u)].push_back(
        {edges[e].v, plane});
    adjacency_[static_cast<std::size_t>(edges[e].v)].push_back(
        {edges[e].u, plane});
  }

  // One BFS source per distinct pair endpoint. Reachability in an
  // undirected world is symmetric, so pair i reads its count off its
  // min-endpoint's planes, and a gain probe combines both endpoints' planes.
  const auto& pairs = instance.pairs();
  std::vector<std::size_t> sourceOf(n, n);
  const auto sourceIndex = [&](NodeId x) {
    std::size_t& si = sourceOf[static_cast<std::size_t>(x)];
    if (si == n) {
      si = sources_.size();
      sources_.push_back({x, {}});
    }
    return si;
  };
  pairSource_.resize(pairs.size());
  pairTargetSource_.resize(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    pairSource_[i] = sourceIndex(std::min(pairs[i].u, pairs[i].w));
    pairTargetSource_[i] = sourceIndex(std::max(pairs[i].u, pairs[i].w));
  }
  const auto w = static_cast<std::size_t>(worlds.worlds());
  for (auto& sr : sources_) {
    sr.planes.assign(n, Bitset(w));
  }
  reachCount_.assign(pairs.size(), 0);

  // Maintained iff R̂ >= 1 - p_t, as an integer world-count threshold.
  // The epsilon keeps an exactly-at-threshold count qualifying despite
  // the rounding in W * (1 - p_t).
  const double pt =
      msc::wireless::lengthToFailure(instance.distanceThreshold());
  const double need = static_cast<double>(worlds.worlds()) * (1.0 - pt);
  minCount_ = static_cast<std::size_t>(
      std::max(0.0, std::ceil(need - 1e-9)));

  reset();
}

void ReliabilityEvaluator::reset() {
  // Drop committed shortcuts from the adjacency (they were appended after
  // the base arcs, one arc per endpoint per shortcut).
  for (const core::Shortcut& f : placement_) {
    adjacency_[static_cast<std::size_t>(f.a)].pop_back();
    adjacency_[static_cast<std::size_t>(f.b)].pop_back();
  }
  placement_.clear();

  {
    const msc::obs::ScopedSpan span("mc.frontier", frontierHistogram());
    for (auto& sr : sources_) {
      for (auto& plane : sr.planes) plane.clear();
      sr.planes[static_cast<std::size_t>(sr.source)].setAll();
      propagate(sr, {sr.source});
    }
  }
  refreshCounts();
}

void ReliabilityEvaluator::propagate(SourceReach& sr,
                                     const std::vector<NodeId>& seeds) {
  std::vector<std::uint8_t> queued(adjacency_.size(), 0);
  std::vector<NodeId> frontier;
  for (const NodeId s : seeds) {
    if (!queued[static_cast<std::size_t>(s)]) {
      queued[static_cast<std::size_t>(s)] = 1;
      frontier.push_back(s);
    }
  }
  while (!frontier.empty()) {
    const NodeId x = frontier.back();
    frontier.pop_back();
    queued[static_cast<std::size_t>(x)] = 0;
    const Bitset& rx = sr.planes[static_cast<std::size_t>(x)];
    for (const OutArc& arc : adjacency_[static_cast<std::size_t>(x)]) {
      Bitset& ry = sr.planes[static_cast<std::size_t>(arc.to)];
      if (relaxInto(rx, arc.plane, ry) &&
          !queued[static_cast<std::size_t>(arc.to)]) {
        queued[static_cast<std::size_t>(arc.to)] = 1;
        frontier.push_back(arc.to);
      }
    }
  }
}

void ReliabilityEvaluator::rebuildFrom(const std::vector<NodeId>& seeds) {
  const msc::obs::ScopedSpan span("mc.frontier", frontierHistogram());
  for (auto& sr : sources_) propagate(sr, seeds);
}

void ReliabilityEvaluator::add(const core::Shortcut& f) {
  instance_->graph().checkNode(f.a);
  instance_->graph().checkNode(f.b);
  placement_.push_back(f);
  adjacency_[static_cast<std::size_t>(f.a)].push_back({f.b, nullptr});
  adjacency_[static_cast<std::size_t>(f.b)].push_back({f.a, nullptr});
  // Reachability only grows when an edge is added, so propagating from the
  // new endpoints alone reaches the monotone fixpoint.
  rebuildFrom({f.a, f.b});
  refreshCounts();
  reportProgress();
}

void ReliabilityEvaluator::reportProgress() const {
  // Estimator-convergence snapshot per committed shortcut: σ̂, uncertain
  // pairs, and half-width spread. Computed only when a reporter is bound —
  // the unbound path pays one thread-local load — and never from
  // gainIfAdd, which is the parallel-scan hot loop.
  msc::obs::ProgressReporter* const progress = msc::obs::currentProgress();
  if (progress == nullptr) return;
  const double w = static_cast<double>(worlds_->worlds());
  const double threshold =
      1.0 - msc::wireless::lengthToFailure(instance_->distanceThreshold());
  const double z = 1.96;  // matches McOptions' default confidence
  double sumHw = 0.0;
  double maxHw = 0.0;
  int uncertain = 0;
  for (const std::size_t c : reachCount_) {
    const double r = static_cast<double>(c) / w;
    const double hw = z * std::sqrt(r * (1.0 - r) / w);
    sumHw += hw;
    maxHw = std::max(maxHw, hw);
    if (std::abs(r - threshold) <= hw) ++uncertain;
  }
  msc::obs::ProgressSnapshot snap;
  snap.solver = "mc";
  snap.stage = msc::obs::currentProgressStage();
  snap.round = static_cast<int>(placement_.size());
  snap.totalRounds = -1;  // the evaluator doesn't know the caller's budget
  snap.value = currentValue();
  snap.extra("worlds", w);
  snap.extra("sigma_hat", static_cast<double>(maintained_));
  snap.extra("uncertain_pairs", static_cast<double>(uncertain));
  if (!reachCount_.empty()) {
    snap.extra("mean_half_width",
               sumHw / static_cast<double>(reachCount_.size()));
    snap.extra("max_half_width", maxHw);
  }
  progress->report(snap);
}

void ReliabilityEvaluator::refreshCounts() {
  totalReached_ = 0;
  maintained_ = 0;
  for (std::size_t i = 0; i < reachCount_.size(); ++i) {
    const auto t =
        static_cast<std::size_t>(sources_[pairTargetSource_[i]].source);
    const std::size_t c = sources_[pairSource_[i]].planes[t].count();
    reachCount_[i] = c;
    totalReached_ += c;
    if (c >= minCount_) ++maintained_;
  }
}

double ReliabilityEvaluator::currentValue() const {
  if (objective_ == Objective::MaintainedCount) {
    return static_cast<double>(maintained_);
  }
  return static_cast<double>(totalReached_) /
         static_cast<double>(worlds_->worlds());
}

double ReliabilityEvaluator::gainIfAdd(const core::Shortcut& f) const {
  instance_->graph().checkNode(f.a);
  instance_->graph().checkNode(f.b);
  const auto a = static_cast<std::size_t>(f.a);
  const auto b = static_cast<std::size_t>(f.b);
  const auto worlds = static_cast<std::size_t>(worlds_->worlds());

  // In every world the graph is undirected and the shortcut is up, so
  // adding (a, b) merges exactly the components of a and b: s reaches t
  // afterwards iff it already did, or s~a and b~t, or s~b and a~t. Pair
  // i's new reached-world count is therefore the popcount of
  //     P_s[t] | (P_s[a] & P_t[b]) | (P_s[b] & P_t[a])
  // with P_x[y] = worlds where x reaches y (ALGORITHMS.md §17).
  std::size_t newTotal = totalReached_;
  int newMaintained = maintained_;
  for (std::size_t i = 0; i < reachCount_.size(); ++i) {
    // A pair connected in every world cannot gain, and under σ̂ neither
    // can one already maintained.
    if (reachCount_[i] == worlds ||
        (objective_ == Objective::MaintainedCount &&
         reachCount_[i] >= minCount_)) {
      continue;
    }
    const SourceReach& target = sources_[pairTargetSource_[i]];
    const auto& ps = sources_[pairSource_[i]].planes;
    const auto& pt = target.planes;
    const std::uint64_t* st =
        ps[static_cast<std::size_t>(target.source)].words().data();
    const std::uint64_t* sa = ps[a].words().data();
    const std::uint64_t* sb = ps[b].words().data();
    const std::uint64_t* ta = pt[a].words().data();
    const std::uint64_t* tb = pt[b].words().data();
    const std::size_t nw = ps[a].wordCount();
    std::size_t c = 0;
    for (std::size_t k = 0; k < nw; ++k) {
      c += static_cast<std::size_t>(
          std::popcount(st[k] | (sa[k] & tb[k]) | (sb[k] & ta[k])));
    }
    newTotal += c - reachCount_[i];
    if (c >= minCount_ && reachCount_[i] < minCount_) ++newMaintained;
  }

  if (objective_ == Objective::MaintainedCount) {
    return static_cast<double>(newMaintained - maintained_);
  }
  return static_cast<double>(newTotal - totalReached_) /
         static_cast<double>(worlds);
}

double ReliabilityEvaluator::value(
    const core::ShortcutList& placement) const {
  ReliabilityEvaluator scratch(*instance_, *worlds_, objective_);
  return scratch.evaluate(placement);
}

std::vector<PairReliability> ReliabilityEvaluator::pairEstimates(
    double z) const {
  const double w = static_cast<double>(worlds_->worlds());
  const double threshold =
      1.0 - msc::wireless::lengthToFailure(instance_->distanceThreshold());
  std::vector<PairReliability> out;
  out.reserve(reachCount_.size());
  for (std::size_t i = 0; i < reachCount_.size(); ++i) {
    PairReliability pr;
    pr.pair = instance_->pairs()[i];
    pr.reliability = static_cast<double>(reachCount_[i]) / w;
    pr.halfWidth = z * std::sqrt(pr.reliability * (1.0 - pr.reliability) / w);
    pr.maintained = reachCount_[i] >= minCount_;
    pr.uncertain = std::abs(pr.reliability - threshold) <= pr.halfWidth;
    out.push_back(pr);
  }
  return out;
}

int ReliabilityEvaluator::uncertainCount(double z) const {
  int c = 0;
  for (const PairReliability& pr : pairEstimates(z)) {
    if (pr.uncertain) ++c;
  }
  return c;
}

namespace {

/// Union-find over node ids; plain arrays, path halving.
struct DisjointSet {
  std::vector<int> parent;
  explicit DisjointSet(int n) : parent(static_cast<std::size_t>(n)) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) {
    parent[static_cast<std::size_t>(find(a))] = find(b);
  }
};

}  // namespace

std::vector<double> exactPairReliabilities(
    const core::Instance& instance, const core::ShortcutList& placement) {
  const auto& g = instance.graph();
  const std::size_t m = g.edgeCount();
  if (m > 20) {
    throw std::invalid_argument(
        "exactPairReliabilities: 2^m enumeration needs edgeCount <= 20");
  }
  const auto edges = g.edges();
  std::vector<double> pUp(m);
  for (std::size_t e = 0; e < m; ++e) pUp[e] = std::exp(-edges[e].length);

  const auto& pairs = instance.pairs();
  std::vector<double> rel(pairs.size(), 0.0);
  const std::uint64_t worlds = 1ULL << m;
  for (std::uint64_t mask = 0; mask < worlds; ++mask) {
    double prob = 1.0;
    for (std::size_t e = 0; e < m; ++e) {
      prob *= ((mask >> e) & 1ULL) ? pUp[e] : (1.0 - pUp[e]);
    }
    if (prob == 0.0) continue;
    DisjointSet dsu(g.nodeCount());
    for (std::size_t e = 0; e < m; ++e) {
      if ((mask >> e) & 1ULL) dsu.unite(edges[e].u, edges[e].v);
    }
    for (const core::Shortcut& f : placement) dsu.unite(f.a, f.b);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (dsu.find(pairs[i].u) == dsu.find(pairs[i].w)) rel[i] += prob;
    }
  }
  return rel;
}

int exactSigma(const core::Instance& instance,
               const core::ShortcutList& placement) {
  const double threshold =
      1.0 - msc::wireless::lengthToFailure(instance.distanceThreshold());
  int sigma = 0;
  for (const double r : exactPairReliabilities(instance, placement)) {
    if (r >= threshold - 1e-12) ++sigma;
  }
  return sigma;
}

}  // namespace msc::mc
