#include "core/weighted.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/bounds.h"
#include "core/sigma.h"

namespace msc::core {

std::vector<double> checkPairWeights(const Instance& instance,
                                     std::vector<double> weights) {
  if (static_cast<int>(weights.size()) != instance.pairCount()) {
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

// ------------------------------------------------------ WeightedSigma ----

WeightedSigmaEvaluator::WeightedSigmaEvaluator(const Instance& instance,
                                               std::vector<double> pairWeights)
    : instance_(&instance),
      weights_(checkPairWeights(instance, std::move(pairWeights))),
      overlay_(instance.distanceOracle(), instance.pairNodes()),
      rows_(instance.distanceOracle(), instance.pairNodes()) {
  reset();
}

void WeightedSigmaEvaluator::reset() {
  near_.invalidate();
  rows_.reset();
  const auto& pairs = instance_->pairs();
  satisfied_.assign(pairs.size(), 0);
  current_ = 0.0;
  const double dt = instance_->distanceThreshold();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const double* ru = rows_.rowIfPresent(pairs[i].u);
    if (ru[static_cast<std::size_t>(pairs[i].w)] <= dt) {
      satisfied_[i] = 1;
      current_ += weights_[i];
    }
  }
}

void WeightedSigmaEvaluator::prepareScan(const CandidateSet& candidates) {
  const auto& pairs = instance_->pairs();
  near_.build(pairs, pairRowsOf(pairs, rows_), instance_->distanceThreshold(),
              candidates.endpoints(), instance_->graph().nodeCount());
}

double WeightedSigmaEvaluator::gainIfAdd(const Shortcut& f) const {
  const auto& pairs = instance_->pairs();
  const double dt = instance_->distanceThreshold();
  // Ascending pair order either way, so the sum is the full loop's.
  double gain = 0.0;
  const bool indexed = near_.forEachShared(f.a, f.b, [&](std::size_t i) {
    if (satisfiedWithOneShortcut(near_.rows(i), pairs[i], f, dt)) {
      gain += weights_[i];
    }
  });
  if (indexed) return gain;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (satisfied_[i]) continue;
    const PairRows rows{rows_.rowIfPresent(pairs[i].u),
                        rows_.rowIfPresent(pairs[i].w)};
    if (satisfiedWithOneShortcut(rows, pairs[i], f, dt)) gain += weights_[i];
  }
  return gain;
}

void WeightedSigmaEvaluator::add(const Shortcut& f) {
  near_.invalidate();
  rows_.applyZeroEdge(f.a, f.b);
  const auto& pairs = instance_->pairs();
  const double dt = instance_->distanceThreshold();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (satisfied_[i]) continue;
    const double* ru = rows_.rowIfPresent(pairs[i].u);
    if (ru[static_cast<std::size_t>(pairs[i].w)] <= dt) {
      satisfied_[i] = 1;
      current_ += weights_[i];
    }
  }
}

double WeightedSigmaEvaluator::value(const ShortcutList& placement) const {
  const auto dists = pairDistancesUnder(overlay_, *instance_, placement);
  const double dt = instance_->distanceThreshold();
  double total = 0.0;
  for (std::size_t i = 0; i < dists.size(); ++i) {
    if (dists[i] <= dt) total += weights_[i];
  }
  return total;
}

// --------------------------------------------------------- WeightedMu ----

WeightedMuEvaluator::WeightedMuEvaluator(const Instance& instance,
                                         const CandidateSet& candidates,
                                         std::vector<double> pairWeights)
    : instance_(&instance),
      candidates_(&candidates),
      weights_(checkPairWeights(instance, std::move(pairWeights))),
      perCandidate_(oneShortcutSets(instance, candidates)),
      baseSatisfied_(instance.pairs().size()),
      covered_(instance.pairs().size()) {
  const auto& pairs = instance.pairs();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (instance.baseSatisfied(pairs[i])) baseSatisfied_.set(i);
  }
  reset();
}

double WeightedMuEvaluator::weightOf(const util::Bitset& covered) const {
  double total = 0.0;
  const auto& words = covered.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      total += weights_[w * 64 + static_cast<std::size_t>(bit)];
      bits &= bits - 1;
    }
  }
  return total;
}

const util::Bitset& WeightedMuEvaluator::bitsetFor(
    const Shortcut& f, util::Bitset& scratch) const {
  const long idx = candidates_->indexOf(f);
  if (idx >= 0) return perCandidate_[static_cast<std::size_t>(idx)];
  scratch = oneShortcutSet(*instance_, f);
  return scratch;
}

double WeightedMuEvaluator::value(const ShortcutList& placement) const {
  util::Bitset acc = baseSatisfied_;
  util::Bitset scratch;
  for (const Shortcut& f : placement) acc |= bitsetFor(f, scratch);
  return weightOf(acc);
}

void WeightedMuEvaluator::reset() { covered_ = baseSatisfied_; }

double WeightedMuEvaluator::currentValue() const { return weightOf(covered_); }

double WeightedMuEvaluator::gainIfAdd(const Shortcut& f) const {
  util::Bitset scratch;
  const util::Bitset& bits = bitsetFor(f, scratch);
  double gain = 0.0;
  covered_.forEachMissingFrom(bits,
                              [&](std::size_t i) { gain += weights_[i]; });
  return gain;
}

void WeightedMuEvaluator::add(const Shortcut& f) {
  util::Bitset scratch;
  covered_ |= bitsetFor(f, scratch);
}

// --------------------------------------------------------- WeightedNu ----

WeightedNuEvaluator::WeightedNuEvaluator(const Instance& instance,
                                         std::vector<double> pairWeights)
    : instance_(&instance), covered_(instance.pairNodes().size()) {
  const auto weights = checkPairWeights(instance, std::move(pairWeights));
  const auto& pairs = instance.pairs();
  const auto& pairNodes = instance.pairNodes();
  const double dt = instance.distanceThreshold();
  const int n = instance.graph().nodeCount();

  std::vector<int> slot(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < pairNodes.size(); ++i) {
    slot[static_cast<std::size_t>(pairNodes[i])] = static_cast<int>(i);
  }
  nodeWeights_.assign(pairNodes.size(), 0.0);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (instance.baseSatisfied(pairs[i])) {
      baseConstant_ += weights[i];
      continue;
    }
    nodeWeights_[static_cast<std::size_t>(
        slot[static_cast<std::size_t>(pairs[i].u)])] += 0.5 * weights[i];
    nodeWeights_[static_cast<std::size_t>(
        slot[static_cast<std::size_t>(pairs[i].w)])] += 0.5 * weights[i];
  }
  // Swept per pair-node row (see NuEvaluator) — no matrix columns, so the
  // pair-centric mode never materializes n^2 entries.
  coverage_.assign(static_cast<std::size_t>(n),
                   util::Bitset(pairNodes.size()));
  const auto& oracle = instance.distanceOracle();
  for (std::size_t i = 0; i < pairNodes.size(); ++i) {
    const std::span<const double> row = oracle.distancesFrom(pairNodes[i]);
    for (int v = 0; v < n; ++v) {
      if (row[static_cast<std::size_t>(v)] <= dt) {
        coverage_[static_cast<std::size_t>(v)].set(i);
      }
    }
  }
  reset();
}

double WeightedNuEvaluator::value(const ShortcutList& placement) const {
  util::Bitset acc(instance_->pairNodes().size());
  for (const Shortcut& f : placement) {
    acc |= coverage_[static_cast<std::size_t>(f.a)];
    acc |= coverage_[static_cast<std::size_t>(f.b)];
  }
  double total = baseConstant_;
  const auto& words = acc.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      total += nodeWeights_[w * 64 + static_cast<std::size_t>(bit)];
      bits &= bits - 1;
    }
  }
  return total;
}

void WeightedNuEvaluator::reset() {
  covered_ = util::Bitset(instance_->pairNodes().size());
  current_ = baseConstant_;
}

double WeightedNuEvaluator::gainOfEndpoint(NodeId v,
                                           const util::Bitset& covered) const {
  double gain = 0.0;
  covered.forEachMissingFrom(coverage_[static_cast<std::size_t>(v)],
                             [&](std::size_t i) { gain += nodeWeights_[i]; });
  return gain;
}

double WeightedNuEvaluator::gainIfAdd(const Shortcut& f) const {
  double gain = gainOfEndpoint(f.a, covered_);
  // coverage(b) & ~covered & ~coverage(a): no copy of covered_ per probe.
  covered_.forEachMissingFrom(coverage_[static_cast<std::size_t>(f.b)],
                              coverage_[static_cast<std::size_t>(f.a)],
                              [&](std::size_t i) { gain += nodeWeights_[i]; });
  return gain;
}

void WeightedNuEvaluator::add(const Shortcut& f) {
  current_ += gainIfAdd(f);
  covered_ |= coverage_[static_cast<std::size_t>(f.a)];
  covered_ |= coverage_[static_cast<std::size_t>(f.b)];
}

// ------------------------------------------------------------ Sandwich ----

SandwichResult weightedSandwich(const Instance& instance,
                                const std::vector<double>& pairWeights,
                                const CandidateSet& candidates,
                                const SolveOptions& options) {
  WeightedSigmaEvaluator sigma(instance, pairWeights);
  WeightedMuEvaluator mu(instance, candidates, pairWeights);
  WeightedNuEvaluator nu(instance, pairWeights);
  return sandwichApproximation(sigma, mu, nu, sigma, nu, candidates, options);
}

}  // namespace msc::core
