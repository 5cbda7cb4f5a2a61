#include "core/sigma.h"

#include <algorithm>

#include "core/candidates.h"
#include "obs/metrics.h"

namespace msc::core {

namespace {

// Pair checks made by one gainIfAdd/add call, published per call so
// strategy comparisons see operation counts, not just call counts.
void publishPairChecks(std::size_t checks) {
  static auto& cRelax = msc::obs::counter("sigma.relaxations");
  cRelax.add(checks);
}

double sigmaOver(const msc::graph::OverlayEvaluator& overlay,
                 const Instance& instance, const ShortcutList& placement) {
  if (msc::obs::enabled()) {
    static auto& cCalls = msc::obs::counter("sigma.calls");
    cCalls.add(1);
  }
  const double dt = instance.distanceThreshold();
  int count = 0;
  for (const double d : pairDistancesUnder(overlay, instance, placement)) {
    if (d <= dt) ++count;
  }
  return static_cast<double>(count);
}

}  // namespace

SigmaEvaluator::SigmaEvaluator(const Instance& instance)
    : instance_(&instance),
      overlay_(instance.distanceOracle(), instance.pairNodes()),
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

double SigmaEvaluator::value(const ShortcutList& placement) const {
  return sigmaOver(overlay_, *instance_, placement);
}

std::vector<double> pairDistancesUnder(
    const msc::graph::OverlayEvaluator& overlay, const Instance& instance,
    const ShortcutList& placement) {
  std::vector<std::pair<NodeId, NodeId>> queries;
  queries.reserve(instance.pairs().size());
  for (const SocialPair& p : instance.pairs()) queries.push_back({p.u, p.w});
  return overlay.pairDistances(queries, asNodePairs(placement));
}

double sigmaValue(const Instance& instance, const ShortcutList& placement) {
  const msc::graph::OverlayEvaluator overlay(instance.distanceOracle(),
                                             instance.pairNodes());
  return sigmaOver(overlay, instance, placement);
}

}  // namespace msc::core
