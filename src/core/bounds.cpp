#include "core/bounds.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/pair_ball.h"
#include "obs/metrics.h"

namespace msc::core {

namespace {

// Base distance rows of every pair endpoint (cached in the oracle, so the
// pointers stay valid while the instance lives).
std::vector<PairRows> pairEndpointRows(const Instance& instance) {
  const auto& oracle = instance.distanceOracle();
  std::vector<PairRows> rows;
  rows.reserve(instance.pairs().size());
  for (const SocialPair& p : instance.pairs()) {
    rows.push_back(
        {oracle.distancesFrom(p.u).data(), oracle.distancesFrom(p.w).data()});
  }
  return rows;
}

}  // namespace

util::Bitset oneShortcutSet(const Instance& instance, const Shortcut& f) {
  const auto& pairs = instance.pairs();
  const auto rows = pairEndpointRows(instance);
  const double dt = instance.distanceThreshold();
  util::Bitset bits(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (satisfiedWithOneShortcut(rows[i], pairs[i], f, dt)) bits.set(i);
  }
  return bits;
}

std::vector<util::Bitset> oneShortcutSets(const Instance& instance,
                                          const CandidateSet& candidates) {
  const auto& pairs = instance.pairs();
  const auto rows = pairEndpointRows(instance);
  const double dt = instance.distanceThreshold();
  // A pair with d(u,w) <= d_t passes for every shortcut; every other pair
  // passes only through the two sums, i.e. only inside near(a) ∩ near(b).
  util::Bitset base(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (rows[i].u[static_cast<std::size_t>(pairs[i].w)] <= dt) base.set(i);
  }
  PairBallIndex near;
  near.build(pairs, rows, dt, candidates.endpoints(),
             instance.graph().nodeCount());
  std::vector<util::Bitset> sets;
  sets.reserve(candidates.size());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    util::Bitset bits = base;
    near.forEachShared(candidates[c].a, candidates[c].b, [&](std::size_t i) {
      if (satisfiedWithOneShortcut(rows[i], pairs[i], candidates[c], dt)) {
        bits.set(i);
      }
    });
    sets.push_back(std::move(bits));
  }
  return sets;
}

// ---------------------------------------------------------------- Mu ----

MuEvaluator::MuEvaluator(const Instance& instance,
                         const CandidateSet& candidates)
    : instance_(&instance),
      candidates_(&candidates),
      perCandidate_(oneShortcutSets(instance, candidates)),
      baseSatisfied_(instance.pairs().size()),
      covered_(instance.pairs().size()) {
  const auto& pairs = instance.pairs();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (instance.baseSatisfied(pairs[i])) baseSatisfied_.set(i);
  }
  reset();
}

const util::Bitset& MuEvaluator::bitsetFor(const Shortcut& f,
                                           util::Bitset& scratch) const {
  const long idx = candidates_->indexOf(f);
  if (idx >= 0) return perCandidate_[static_cast<std::size_t>(idx)];
  // Not a precomputed candidate: compute from scratch.
  scratch = oneShortcutSet(*instance_, f);
  return scratch;
}

double MuEvaluator::value(const ShortcutList& placement) const {
  util::Bitset acc = baseSatisfied_;
  util::Bitset scratch;
  for (const Shortcut& f : placement) acc |= bitsetFor(f, scratch);
  return static_cast<double>(acc.count());
}

void MuEvaluator::reset() { covered_ = baseSatisfied_; }

double MuEvaluator::gainIfAdd(const Shortcut& f) const {
  if (msc::obs::enabled()) {
    static auto& cGain = msc::obs::counter("mu.gain_calls");
    cGain.add(1);
  }
  util::Bitset scratch;
  return static_cast<double>(covered_.gainIfUnion(bitsetFor(f, scratch)));
}

void MuEvaluator::add(const Shortcut& f) {
  if (msc::obs::enabled()) {
    static auto& cAdd = msc::obs::counter("mu.adds");
    cAdd.add(1);
  }
  util::Bitset scratch;
  covered_ |= bitsetFor(f, scratch);
}

util::Bitset MuEvaluator::satisfiedBy(const Shortcut& f) const {
  util::Bitset scratch;
  util::Bitset out = bitsetFor(f, scratch);
  out |= baseSatisfied_;
  return out;
}

// ---------------------------------------------------------------- Nu ----

NuEvaluator::NuEvaluator(const Instance& instance)
    : instance_(&instance), covered_(instance.pairNodes().size()) {
  const auto& pairs = instance.pairs();
  const auto& pairNodes = instance.pairNodes();
  const double dt = instance.distanceThreshold();
  const int n = instance.graph().nodeCount();

  // Pair-node index lookup.
  std::vector<int> slot(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < pairNodes.size(); ++i) {
    slot[static_cast<std::size_t>(pairNodes[i])] = static_cast<int>(i);
  }

  // Weights count only initially-unsatisfied pairs; the satisfied ones are
  // folded into baseConstant_ so nu still upper-bounds sigma on instances
  // with pre-satisfied pairs.
  weights_.assign(pairNodes.size(), 0.0);
  for (const SocialPair& p : pairs) {
    if (instance.baseSatisfied(p)) {
      baseConstant_ += 1.0;
      continue;
    }
    weights_[static_cast<std::size_t>(slot[static_cast<std::size_t>(p.u)])] +=
        0.5;
    weights_[static_cast<std::size_t>(slot[static_cast<std::size_t>(p.w)])] +=
        0.5;
  }

  // coverage_[v]: pair-nodes within d_t of graph node v. Built by sweeping
  // each pair-node's distance row (prefetched at instance construction)
  // instead of reading matrix columns, so only |pairNodes| rows are ever
  // touched — no O(n^2) materialization in the pair-centric mode.
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

double NuEvaluator::value(const ShortcutList& placement) const {
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
      total += weights_[w * 64 + static_cast<std::size_t>(bit)];
      bits &= bits - 1;
    }
  }
  return total;
}

void NuEvaluator::reset() {
  covered_ = util::Bitset(instance_->pairNodes().size());
  current_ = baseConstant_;
}

double NuEvaluator::gainOfEndpoint(NodeId v,
                                   const util::Bitset& covered) const {
  double gain = 0.0;
  covered.forEachMissingFrom(coverage_[static_cast<std::size_t>(v)],
                             [&](std::size_t bit) { gain += weights_[bit]; });
  return gain;
}

double NuEvaluator::gainIfAdd(const Shortcut& f) const {
  if (msc::obs::enabled()) {
    static auto& cGain = msc::obs::counter("nu.gain_calls");
    cGain.add(1);
  }
  if (f.a == f.b) return 0.0;
  double gain = gainOfEndpoint(f.a, covered_);
  // Second endpoint's gain must not double-count pair-nodes the first
  // endpoint newly covers: coverage(b) & ~covered & ~coverage(a), word by
  // word, in the same ascending bit order as before.
  covered_.forEachMissingFrom(coverage_[static_cast<std::size_t>(f.b)],
                              coverage_[static_cast<std::size_t>(f.a)],
                              [&](std::size_t bit) { gain += weights_[bit]; });
  return gain;
}

void NuEvaluator::add(const Shortcut& f) {
  if (msc::obs::enabled()) {
    static auto& cAdd = msc::obs::counter("nu.adds");
    cAdd.add(1);
  }
  current_ += gainIfAdd(f);
  covered_ |= coverage_[static_cast<std::size_t>(f.a)];
  covered_ |= coverage_[static_cast<std::size_t>(f.b)];
}

}  // namespace msc::core
