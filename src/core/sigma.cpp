#include "core/sigma.h"

#include <algorithm>

#include "core/candidates.h"
#include "graph/dijkstra.h"
#include "obs/metrics.h"

namespace msc::core {

namespace {

// Pair checks made by one gainIfAdd/add call, published per call so
// strategy comparisons see operation counts, not just call counts.
void publishPairChecks(std::size_t checks) {
  static auto& cRelax = msc::obs::counter("sigma.relaxations");
  cRelax.add(checks);
}

}  // namespace

SigmaEvaluator::SigmaEvaluator(const Instance& instance)
    : instance_(&instance),
      overlay_(std::make_unique<msc::graph::OverlayEvaluator>(
          instance.distanceOracle(), instance.pairNodes())),
      rows_(instance.distanceOracle(), instance.pairNodes()) {
  refreshSatisfied();
}

void SigmaEvaluator::reset() {
  near_.invalidate();
  rows_.reset();
  refreshSatisfied();
}

void SigmaEvaluator::refreshSatisfied() {
  const auto& pairs = instance_->pairs();
  pairSatisfied_.assign(pairs.size(), 0);
  satisfied_ = 0;
  const double dt = instance_->distanceThreshold();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const double* ru = rows_.rowIfPresent(pairs[i].u);
    if (ru[static_cast<std::size_t>(pairs[i].w)] <= dt) {
      pairSatisfied_[i] = 1;
      ++satisfied_;
    }
  }
}

void SigmaEvaluator::prepareScan(const CandidateSet& candidates) {
  const auto& pairs = instance_->pairs();
  near_.build(pairs, pairRowsOf(pairs, rows_), instance_->distanceThreshold(),
              candidates.endpoints(), instance_->graph().nodeCount());
}

double SigmaEvaluator::gainIfAdd(const Shortcut& f) const {
  const auto& pairs = instance_->pairs();
  const double dt = instance_->distanceThreshold();
  const auto a = static_cast<std::size_t>(f.a);
  const auto b = static_cast<std::size_t>(f.b);
  int gain = 0;
  std::size_t checks = 0;
  // The row of w stands in for the columns of w (the evolved metric is
  // symmetric).
  const auto check = [&](const double* ru, const double* rw) {
    ++checks;
    const double viaAB = ru[a] + rw[b];
    const double viaBA = ru[b] + rw[a];
    if (std::min(viaAB, viaBA) <= dt) ++gain;
  };
  const bool indexed = near_.forEachShared(f.a, f.b, [&](std::size_t i) {
    check(near_.rows(i).u, near_.rows(i).w);
  });
  if (!indexed) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (pairSatisfied_[i]) continue;  // distances only shrink
      check(rows_.rowIfPresent(pairs[i].u), rows_.rowIfPresent(pairs[i].w));
    }
  }
  if (msc::obs::enabled()) {
    static auto& cGain = msc::obs::counter("sigma.gain_calls");
    cGain.add(1);
    publishPairChecks(checks);
  }
  return static_cast<double>(gain);
}

void SigmaEvaluator::add(const Shortcut& f) {
  if (msc::obs::enabled()) {
    static auto& cAdd = msc::obs::counter("sigma.adds");
    cAdd.add(1);
    publishPairChecks(instance_->pairs().size() -
                      static_cast<std::size_t>(satisfied_));
  }
  near_.invalidate();
  rows_.applyZeroEdge(f.a, f.b);
  const auto& pairs = instance_->pairs();
  const double dt = instance_->distanceThreshold();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pairSatisfied_[i]) continue;
    const double* ru = rows_.rowIfPresent(pairs[i].u);
    if (ru[static_cast<std::size_t>(pairs[i].w)] <= dt) {
      pairSatisfied_[i] = 1;
      ++satisfied_;
    }
  }
}

double SigmaEvaluator::pairDistance(int pairIndex) const {
  const auto& p = instance_->pairs().at(static_cast<std::size_t>(pairIndex));
  return rows_.rowIfPresent(p.u)[static_cast<std::size_t>(p.w)];
}

int SigmaEvaluator::countSatisfied(
    const msc::graph::ShortcutRowStore& rows) const {
  const double dt = instance_->distanceThreshold();
  int count = 0;
  for (const SocialPair& p : instance_->pairs()) {
    if (rows.rowIfPresent(p.u)[static_cast<std::size_t>(p.w)] <= dt) {
      ++count;
    }
  }
  return count;
}

double SigmaEvaluator::value(const ShortcutList& placement) const {
  if (msc::obs::enabled()) {
    static auto& cCalls = msc::obs::counter("sigma.calls");
    cCalls.add(1);
  }
  // Cost heuristic: row relaxations touch |F| * |rows| * n entries, the
  // overlay touches |F| * (2m + 2|F|)^2 ≈ |F| * |rows|^2. Pick the cheaper
  // exact strategy: overlay when the overlay is smaller than a row.
  const auto n = static_cast<double>(instance_->graph().nodeCount());
  const auto overlayNodes =
      static_cast<double>(instance_->pairNodes().size() + 2 * placement.size());
  if (overlayNodes < n) {
    return valueByOverlay(placement);
  }
  return valueByRows(placement);
}

double SigmaEvaluator::valueByRows(const ShortcutList& placement) const {
  if (msc::obs::enabled()) {
    static auto& cRows = msc::obs::counter("sigma.value.rows");
    cRows.add(1);
  }
  msc::graph::ShortcutRowStore rows(instance_->distanceOracle(),
                                    instance_->pairNodes());
  for (const Shortcut& f : placement) rows.applyZeroEdge(f.a, f.b);
  return static_cast<double>(countSatisfied(rows));
}

double SigmaEvaluator::valueByOverlay(const ShortcutList& placement) const {
  if (msc::obs::enabled()) {
    static auto& cOverlay = msc::obs::counter("sigma.value.overlay");
    cOverlay.add(1);
  }
  std::vector<std::pair<msc::graph::NodeId, msc::graph::NodeId>> queries;
  queries.reserve(instance_->pairs().size());
  for (const SocialPair& p : instance_->pairs()) queries.push_back({p.u, p.w});
  return static_cast<double>(overlay_->countWithinThreshold(
      queries, asNodePairs(placement), instance_->distanceThreshold()));
}

double SigmaEvaluator::valueByRebuild(const ShortcutList& placement) const {
  if (msc::obs::enabled()) {
    static auto& cRebuild = msc::obs::counter("sigma.value.rebuild");
    cRebuild.add(1);
  }
  msc::graph::Graph g(instance_->graph().nodeCount());
  for (const msc::graph::Edge& e : instance_->graph().edges()) {
    g.addEdge(e.u, e.v, e.length);
  }
  for (const Shortcut& f : placement) g.addEdge(f.a, f.b, 0.0);
  const double dt = instance_->distanceThreshold();
  int count = 0;
  for (const SocialPair& p : instance_->pairs()) {
    if (msc::graph::dijkstraDistance(g, p.u, p.w) <= dt) ++count;
  }
  return static_cast<double>(count);
}

double sigmaValue(const Instance& instance, const ShortcutList& placement) {
  return SigmaEvaluator(instance).value(placement);
}

}  // namespace msc::core
