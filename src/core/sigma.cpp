#include "core/sigma.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/gain_scan.h"
#include "obs/metrics.h"

namespace msc::core {

namespace {

// Pair checks made by one gainIfAdd/add call, or the ball-product visits
// of one scanGains, published per call so strategy comparisons see
// operation counts, not just call counts.
void publishPairChecks(std::size_t checks) {
  static auto& cRelax = msc::obs::counter("sigma.relaxations");
  cRelax.add(checks);
}

// `w` if `keep`, else +0.0, without a branch: whether an open pair counts
// for a probe is close to a coin flip, and a mispredicted branch costs more
// than the add. Adding +0.0 to a sum of weights >= 0 leaves it unchanged.
double weightIf(bool keep, double w) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(w) &
                               -static_cast<std::uint64_t>(keep));
}

// Weights of the pairs maintained under `placement`, summed in ascending
// pair order.
double sigmaOver(const msc::graph::OverlayEvaluator& overlay,
                 const Instance& instance, const std::vector<double>& weights,
                 const ShortcutList& placement) {
  if (msc::obs::enabled()) {
    static auto& cCalls = msc::obs::counter("sigma.calls");
    cCalls.add(1);
  }
  const auto dists = pairDistancesUnder(overlay, instance, placement);
  const double dt = instance.distanceThreshold();
  double total = 0.0;
  for (std::size_t i = 0; i < dists.size(); ++i) {
    if (dists[i] <= dt) total += weights[i];
  }
  return total;
}

}  // namespace

std::vector<double> checkPairWeights(const Instance& instance,
                                     std::vector<double> weights) {
  const auto m = static_cast<std::size_t>(instance.pairCount());
  if (weights.empty()) return std::vector<double>(m, 1.0);
  if (weights.size() != m) {
    throw std::invalid_argument("pair weights: size must equal pair count");
  }
  for (const double w : weights) {
    if (!std::isfinite(w) || w < 0.0) {
      throw std::invalid_argument(
          "pair weights: must be finite and non-negative");
    }
  }
  return weights;
}

void BallProduct::build(std::span<const SocialPair> pairs,
                        std::span<const PairRows> rows, double dt,
                        const CandidateSet& candidates) {
  if (rows.size() != pairs.size()) {
    throw std::invalid_argument("BallProduct: one row pair per pair");
  }
  candidates_ = &candidates;
  dt_ = dt;
  open_.clear();
  near_.clear();
  const auto ball = [&](const double* row) {
    const std::size_t first = near_.size();
    for (const NodeId x : candidates.endpoints()) {
      const double d = row[static_cast<std::size_t>(x)];
      if (d <= dt) near_.push_back({d, x});
    }
    std::sort(near_.begin() + static_cast<std::ptrdiff_t>(first), near_.end(),
              [](const Near& l, const Near& r) {
                return l.d < r.d || (l.d == r.d && l.x < r.x);
              });
    return near_.size();
  };
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (rows[i].u[static_cast<std::size_t>(pairs[i].w)] <= dt) continue;
    OpenPair p{i, rows[i], near_.size(), 0, 0};
    p.wBegin = ball(rows[i].u);
    p.wEnd = ball(rows[i].w);
    open_.push_back(p);
  }
}

SigmaEvaluator::SigmaEvaluator(const Instance& instance,
                               std::vector<double> pairWeights)
    : instance_(&instance),
      weights_(checkPairWeights(instance, std::move(pairWeights))),
      overlay_(instance.distanceOracle(), instance.pairNodes(),
               instance.distanceThreshold()),
      rows_(instance.distanceOracle(), instance.pairNodes(), 1,
            instance.distanceThreshold()) {
  refreshSatisfied();
}

void SigmaEvaluator::reset() {
  rows_.reset();
  refreshSatisfied();
}

void SigmaEvaluator::refreshSatisfied() {
  const auto& pairs = instance_->pairs();
  pairSatisfied_.assign(pairs.size(), 0);
  satisfied_ = 0;
  current_ = 0.0;
  markSatisfied();
}

void SigmaEvaluator::markSatisfied() {
  const auto& pairs = instance_->pairs();
  const double dt = instance_->distanceThreshold();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pairSatisfied_[i]) continue;  // distances only shrink
    const double* ru = rows_.rowIfPresent(pairs[i].u);
    if (ru[static_cast<std::size_t>(pairs[i].w)] <= dt) {
      pairSatisfied_[i] = 1;
      ++satisfied_;
      current_ += weights_[i];
    }
  }
}

double SigmaEvaluator::gainIfAdd(const Shortcut& f) const {
  const auto& pairs = instance_->pairs();
  const double dt = instance_->distanceThreshold();
  const auto a = static_cast<std::size_t>(f.a);
  const auto b = static_cast<std::size_t>(f.b);
  double gain = 0.0;
  std::size_t checks = 0;
  // Open pairs only, in ascending pair order. The row of w stands in for
  // the columns of w (the evolved metric is symmetric).
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pairSatisfied_[i]) continue;  // distances only shrink
    ++checks;
    const double* ru = rows_.rowIfPresent(pairs[i].u);
    const double* rw = rows_.rowIfPresent(pairs[i].w);
    const double viaAB = ru[a] + rw[b];
    const double viaBA = ru[b] + rw[a];
    gain += weightIf(std::min(viaAB, viaBA) <= dt, weights_[i]);
  }
  if (msc::obs::enabled()) {
    static auto& cGain = msc::obs::counter("sigma.gain_calls");
    cGain.add(1);
    publishPairChecks(checks);
  }
  return gain;
}

void SigmaEvaluator::scanGains(const CandidateSet& candidates,
                               std::span<double> gains, int threads,
                               std::span<const std::uint8_t> skip) {
  detail::checkScanSize(candidates, gains, skip);
  const auto& pairs = instance_->pairs();
  std::vector<PairRows> rows;
  rows.reserve(pairs.size());
  for (const SocialPair& p : pairs) {
    rows.push_back({rows_.rowIfPresent(p.u), rows_.rowIfPresent(p.w)});
  }
  balls_.build(pairs, rows, instance_->distanceThreshold(), candidates);
  // Pairs run in ascending order inside every range, so each gain adds its
  // pairs' weights in the order gainIfAdd does (skipped pairs add +0.0
  // there, which leaves a sum of weights >= 0 unchanged). One range per
  // thread: each range walks every ball product and keeps its own hits.
  std::atomic<std::size_t> visits{0};
  detail::forEachCandidateRange(
      candidates.size(), threads, 1, [&](std::size_t begin, std::size_t end) {
        std::fill(gains.begin() + static_cast<std::ptrdiff_t>(begin),
                  gains.begin() + static_cast<std::ptrdiff_t>(end), 0.0);
        visits.fetch_add(
            balls_.forEachHit(begin, end,
                              [&](std::size_t i, std::size_t c) {
                                gains[c] += weights_[i];
                              }),
            std::memory_order_relaxed);
      });
  if (msc::obs::enabled()) {
    static auto& cGain = msc::obs::counter("sigma.gain_calls");
    cGain.add(candidates.size());
    publishPairChecks(visits.load(std::memory_order_relaxed));
  }
}

void SigmaEvaluator::add(const Shortcut& f) {
  if (msc::obs::enabled()) {
    static auto& cAdd = msc::obs::counter("sigma.adds");
    cAdd.add(1);
    publishPairChecks(instance_->pairs().size() -
                      static_cast<std::size_t>(satisfied_));
  }
  rows_.applyZeroEdge(f.a, f.b);
  markSatisfied();
}

double SigmaEvaluator::pairDistance(int pairIndex) const {
  const auto& p = instance_->pairs().at(static_cast<std::size_t>(pairIndex));
  return rows_.rowIfPresent(p.u)[static_cast<std::size_t>(p.w)];
}

double SigmaEvaluator::value(const ShortcutList& placement) const {
  return sigmaOver(overlay_, *instance_, weights_, placement);
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
                                             instance.pairNodes(),
                                             instance.distanceThreshold());
  return sigmaOver(overlay, instance, checkPairWeights(instance, {}),
                   placement);
}

}  // namespace msc::core
