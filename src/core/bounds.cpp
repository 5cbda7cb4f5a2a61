#include "core/bounds.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/gain_scan.h"
#include "core/sigma.h"
#include "obs/metrics.h"

namespace msc::core {

namespace {

// Base distance rows of every pair endpoint, exact within d_t (cached in
// the oracle, so the pointers stay valid while the instance lives).
std::vector<PairRows> pairEndpointRows(const Instance& instance) {
  std::vector<PairRows> rows;
  rows.reserve(instance.pairs().size());
  for (const SocialPair& p : instance.pairs()) {
    rows.push_back(
        {instance.baseRow(p.u).data(), instance.baseRow(p.w).data()});
  }
  return rows;
}

// start + the weights of the set bits of `bits`, added in ascending order.
double sumWeights(const util::Bitset& bits, const std::vector<double>& weights,
                  double start = 0.0) {
  double total = start;
  bits.forEachSet([&](std::size_t i) { total += weights[i]; });
  return total;
}

}  // namespace

util::Bitset oneShortcutSet(const Instance& instance, const Shortcut& f) {
  const auto& pairs = instance.pairs();
  const auto rows = pairEndpointRows(instance);
  const double dt = instance.distanceThreshold();
  const auto a = static_cast<std::size_t>(f.a);
  const auto b = static_cast<std::size_t>(f.b);
  util::Bitset bits(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const double* ru = rows[i].u;
    const double* rw = rows[i].w;
    const auto w = static_cast<std::size_t>(pairs[i].w);
    if (std::min({ru[w], ru[a] + rw[b], ru[b] + rw[a]}) <= dt) bits.set(i);
  }
  return bits;
}

// ---------------------------------------------------------------- Mu ----

MuEvaluator::MuEvaluator(const Instance& instance,
                         const CandidateSet& candidates,
                         std::vector<double> pairWeights)
    : instance_(&instance),
      candidates_(&candidates),
      weights_(checkPairWeights(instance, std::move(pairWeights))),
      shared_(instance.pairs().size()),
      baseSatisfied_(instance.pairs().size()),
      covered_(instance.pairs().size()) {
  const auto& pairs = instance.pairs();
  const auto rows = pairEndpointRows(instance);
  const double dt = instance.distanceThreshold();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (instance.baseSatisfied(pairs[i])) baseSatisfied_.set(i);
    if (rows[i].u[static_cast<std::size_t>(pairs[i].w)] <= dt) {
      shared_.set(i);
      if (!baseSatisfied_.test(i)) {
        extra_.push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  // A pair with d(u,w) <= d_t passes for every shortcut (shared_); every
  // other pair passes exactly at the ball-product hits. Hits arrive in
  // ascending pair order, so a stable sort by candidate keeps each row
  // ascending.
  BallProduct balls;
  balls.build(pairs, rows, dt, candidates);
  std::vector<std::pair<std::size_t, std::uint32_t>> hits;
  balls.forEachHit(0, candidates.size(), [&](std::size_t i, std::size_t c) {
    hits.emplace_back(c, static_cast<std::uint32_t>(i));
  });
  std::stable_sort(hits.begin(), hits.end(), [](const auto& l, const auto& r) {
    return l.first < r.first;
  });
  hitPairs_.reserve(hits.size());
  for (const auto& [c, i] : hits) {
    if (hitCandidate_.empty() || hitCandidate_.back() != c) {
      hitCandidate_.push_back(c);
      hitBegin_.push_back(hitPairs_.size());
    }
    hitPairs_.push_back(i);
  }
  hitBegin_.push_back(hitPairs_.size());
  reset();
}

std::span<const std::uint32_t> MuEvaluator::hitsOf(std::size_t c) const {
  const auto it =
      std::lower_bound(hitCandidate_.begin(), hitCandidate_.end(), c);
  if (it == hitCandidate_.end() || *it != c) return {};
  const auto r = static_cast<std::size_t>(it - hitCandidate_.begin());
  return std::span<const std::uint32_t>(hitPairs_).subspan(
      hitBegin_[r], hitBegin_[r + 1] - hitBegin_[r]);
}

double MuEvaluator::uncoveredWeight(
    std::span<const std::uint32_t> hits) const {
  // hits and extra_ are disjoint (hits are open pairs) and ascending:
  // merge them so the weights are added in ascending pair order.
  double gain = 0.0;
  const auto addIfOpen = [&](std::uint32_t i) {
    if (!covered_.test(i)) gain += weights_[i];
  };
  std::size_t e = 0;
  for (const std::uint32_t i : hits) {
    for (; e < extra_.size() && extra_[e] < i; ++e) addIfOpen(extra_[e]);
    addIfOpen(i);
  }
  for (; e < extra_.size(); ++e) addIfOpen(extra_[e]);
  return gain;
}

void MuEvaluator::orInto(util::Bitset& acc, const Shortcut& f) const {
  const long idx = candidates_->indexOf(f);
  if (idx < 0) {
    // Not a precomputed candidate: compute from scratch.
    acc |= oneShortcutSet(*instance_, f);
    return;
  }
  acc |= shared_;
  for (const std::uint32_t i : hitsOf(static_cast<std::size_t>(idx))) {
    acc.set(i);
  }
}

double MuEvaluator::value(const ShortcutList& placement) const {
  util::Bitset acc = baseSatisfied_;
  for (const Shortcut& f : placement) orInto(acc, f);
  return sumWeights(acc, weights_);
}

void MuEvaluator::reset() { covered_ = baseSatisfied_; }

double MuEvaluator::currentValue() const {
  return sumWeights(covered_, weights_);
}

double MuEvaluator::gainIfAdd(const Shortcut& f) const {
  static auto& cGain = msc::obs::counter("mu.gain_calls");
  cGain.add(1);
  // covered_ holds baseSatisfied_, so of the shared pairs only extra_ can
  // be missing from it.
  const long idx = candidates_->indexOf(f);
  if (idx >= 0) return uncoveredWeight(hitsOf(static_cast<std::size_t>(idx)));
  double gain = 0.0;
  covered_.forEachMissingFrom(oneShortcutSet(*instance_, f),
                              [&](std::size_t i) { gain += weights_[i]; });
  return gain;
}

void MuEvaluator::scanGains(const CandidateSet& candidates,
                            std::span<double> gains, int threads,
                            std::span<const std::uint8_t> skip) {
  if (&candidates != candidates_) {
    IncrementalEvaluator::scanGains(candidates, gains, threads, skip);
    return;
  }
  detail::checkScanSize(candidates, gains, skip);
  static auto& cGain = msc::obs::counter("mu.gain_calls");
  cGain.add(candidates.size());
  const double none = uncoveredWeight({});  // a candidate without hits
  detail::forEachCandidateRange(
      candidates.size(), threads, 4, [&](std::size_t begin, std::size_t end) {
        std::fill(gains.begin() + static_cast<std::ptrdiff_t>(begin),
                  gains.begin() + static_cast<std::ptrdiff_t>(end), none);
        auto r = static_cast<std::size_t>(
            std::lower_bound(hitCandidate_.begin(), hitCandidate_.end(),
                             begin) -
            hitCandidate_.begin());
        for (; r < hitCandidate_.size() && hitCandidate_[r] < end; ++r) {
          gains[hitCandidate_[r]] = uncoveredWeight(
              std::span<const std::uint32_t>(hitPairs_).subspan(
                  hitBegin_[r], hitBegin_[r + 1] - hitBegin_[r]));
        }
      });
}

void MuEvaluator::add(const Shortcut& f) {
  static auto& cAdd = msc::obs::counter("mu.adds");
  cAdd.add(1);
  orInto(covered_, f);
}

util::Bitset MuEvaluator::satisfiedBy(const Shortcut& f) const {
  util::Bitset out = baseSatisfied_;
  orInto(out, f);
  return out;
}

// ---------------------------------------------------------------- Nu ----

NuEvaluator::NuEvaluator(const Instance& instance,
                         std::vector<double> pairWeights)
    : instance_(&instance), covered_(instance.pairNodes().size()) {
  const auto weights = checkPairWeights(instance, std::move(pairWeights));
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
  nodeWeights_.assign(pairNodes.size(), 0.0);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (instance.baseSatisfied(pairs[i])) {
      baseConstant_ += weights[i];
      continue;
    }
    for (const NodeId x : {pairs[i].u, pairs[i].w}) {
      nodeWeights_[static_cast<std::size_t>(
          slot[static_cast<std::size_t>(x)])] += 0.5 * weights[i];
    }
  }

  // coverage_[v]: pair-nodes within d_t of graph node v. Built by sweeping
  // each pair-node's distance row (prefetched at instance construction)
  // instead of reading matrix columns, so only |pairNodes| rows are ever
  // touched — never an O(n^2) materialization.
  coverage_.assign(static_cast<std::size_t>(n),
                   util::Bitset(pairNodes.size()));
  for (std::size_t i = 0; i < pairNodes.size(); ++i) {
    const std::span<const double> row = instance.baseRow(pairNodes[i]);
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
  return sumWeights(acc, nodeWeights_, baseConstant_);
}

void NuEvaluator::reset() {
  covered_ = util::Bitset(instance_->pairNodes().size());
  current_ = baseConstant_;
}

double NuEvaluator::gainOfEndpoint(NodeId v,
                                   const util::Bitset& covered) const {
  double gain = 0.0;
  covered.forEachMissingFrom(coverage_[static_cast<std::size_t>(v)],
                             [&](std::size_t i) { gain += nodeWeights_[i]; });
  return gain;
}

double NuEvaluator::gainIfAdd(const Shortcut& f) const {
  static auto& cGain = msc::obs::counter("nu.gain_calls");
  cGain.add(1);
  if (f.a == f.b) return 0.0;
  double gain = gainOfEndpoint(f.a, covered_);
  // Second endpoint's gain must not double-count pair-nodes the first
  // endpoint newly covers: coverage(b) & ~covered & ~coverage(a), word by
  // word, in the same ascending bit order as before.
  covered_.forEachMissingFrom(coverage_[static_cast<std::size_t>(f.b)],
                              coverage_[static_cast<std::size_t>(f.a)],
                              [&](std::size_t i) { gain += nodeWeights_[i]; });
  return gain;
}

void NuEvaluator::scanGains(const CandidateSet& candidates,
                            std::span<double> gains, int threads,
                            std::span<const std::uint8_t> skip) {
  detail::checkScanSize(candidates, gains, skip);
  static auto& cGain = msc::obs::counter("nu.gain_calls");
  cGain.add(candidates.size());
  // gainIfAdd(a, b) starts from gainOfEndpoint(a): compute it once per
  // endpoint instead of once per candidate.
  std::vector<double> first(coverage_.size(), 0.0);
  for (const NodeId v : candidates.endpoints()) {
    first[static_cast<std::size_t>(v)] = gainOfEndpoint(v, covered_);
  }
  const std::size_t words = covered_.wordCount();
  const auto& coveredWords = covered_.words();
  detail::forEachCandidateRange(
      candidates.size(), threads, 4, [&](std::size_t begin, std::size_t end) {
        // open[w] = ~covered & ~coverage(a), refreshed when a changes
        // (candidates are sorted by a).
        std::vector<std::uint64_t> open(words);
        NodeId a = -1;
        for (std::size_t c = begin; c < end; ++c) {
          const Shortcut& f = candidates.all()[c];
          if (f.a != a) {
            a = f.a;
            const auto& cov = coverage_[static_cast<std::size_t>(a)].words();
            for (std::size_t w = 0; w < words; ++w) {
              open[w] = ~coveredWords[w] & ~cov[w];
            }
          }
          gains[c] =
              pairGain(first[static_cast<std::size_t>(a)], f.b, open.data());
        }
      });
}

double NuEvaluator::pairGain(double first, NodeId b,
                             const std::uint64_t* open) const {
  // The same bits gainIfAdd's forEachMissingFrom visits, in the same
  // ascending order, added onto the same first-endpoint sum.
  double gain = first;
  const auto& covB = coverage_[static_cast<std::size_t>(b)].words();
  for (std::size_t w = 0; w < covB.size(); ++w) {
    std::uint64_t bits = covB[w] & open[w];
    while (bits != 0) {
      gain += nodeWeights_[w * 64 +
                           static_cast<std::size_t>(std::countr_zero(bits))];
      bits &= bits - 1;
    }
  }
  return gain;
}

GainPick NuEvaluator::argmaxGain(const CandidateSet& candidates, int threads,
                                 std::span<const std::uint8_t> skip,
                                 std::vector<double>& scratch) {
  if (!candidates.holdsAllEndpointPairs()) {
    return IncrementalEvaluator::argmaxGain(candidates, threads, skip,
                                            scratch);
  }
  if (!skip.empty() && skip.size() != candidates.size()) {
    throw std::invalid_argument("argmaxGain: one flag per candidate");
  }
  GainPick best;
  best.evaluations =
      skip.empty() ? candidates.size()
                   : static_cast<std::size_t>(
                         std::count(skip.begin(), skip.end(), 0));
  const std::vector<NodeId>& ends = candidates.endpoints();
  if (ends.size() < 2) return best;
  // g[p]: endpoint p's gain alone, the first term of every exact gain it
  // starts (scanGains' first[]). The gain of (a, b) is g(a) plus b's gain
  // given a, so in exact arithmetic it is at most g(a) + g(b).
  std::vector<double> g(ends.size());
  for (std::size_t p = 0; p < ends.size(); ++p) {
    g[p] = gainOfEndpoint(ends[p], covered_);
  }
  std::vector<std::uint32_t> order(ends.size());  // positions, by g desc
  std::iota(order.begin(), order.end(), 0U);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t l, std::uint32_t r) { return g[l] > g[r]; });
  // open[p]: the words of ~covered & ~coverage(endpoint p), scanGains' mask
  // for the candidates that p starts.
  const std::size_t words = covered_.wordCount();
  const auto& coveredWords = covered_.words();
  std::vector<std::uint64_t> open(ends.size() * words);
  for (std::size_t p = 0; p < ends.size(); ++p) {
    const auto& cov = coverage_[static_cast<std::size_t>(ends[p])].words();
    for (std::size_t w = 0; w < words; ++w) {
      open[p * words + w] = ~coveredWords[w] & ~cov[w];
    }
  }
  // Every sum above adds at most one term per pair-node, so 2(P + 2) ulps
  // cover the rounding of the exact gain and of the bound's three
  // operations (§2 derives it). Rounding is monotone, so a bound never
  // rises along a row of ranks (i, i + 1), (i, i + 2), ..., nor from one
  // row's first pair to the next row's; overflow keeps a bound +inf.
  const double slack =
      1.0 + 2.0 * static_cast<double>(covered_.size() + 2) *
                std::numeric_limits<double>::epsilon();
  // A pair whose bound is below the best gain found (or not positive) is
  // no pick, and neither is any later pair of its row; when that pair is
  // its row's first, no later row holds a pick.
  const auto hopeless = [&](std::size_t i, std::size_t j) {
    const double bound = (g[order[i]] + g[order[j]]) * slack;
    return !(bound > 0.0) || bound < best.gain;
  };
  std::uint64_t rescored = 0;
  for (std::size_t i = 0; i + 1 < ends.size() && !hopeless(i, i + 1); ++i) {
    for (std::size_t j = i + 1; j < ends.size() && !hopeless(i, j); ++j) {
      const std::uint32_t pa = std::min(order[i], order[j]);
      const std::uint32_t pb = std::max(order[i], order[j]);
      const auto c = static_cast<std::size_t>(
          candidates.indexOf(Shortcut{ends[pa], ends[pb]}));
      if (!skip.empty() && skip[c] != 0) continue;
      ++rescored;
      const double gain = pairGain(g[pa], ends[pb], &open[pa * words]);
      if (gain > 0.0 &&
          (gain > best.gain ||
           (gain == best.gain && static_cast<long>(c) < best.index))) {
        best.index = static_cast<long>(c);
        best.gain = gain;
      }
    }
  }
  static auto& cGain = msc::obs::counter("nu.gain_calls");
  cGain.add(rescored);
  return best;
}

void NuEvaluator::add(const Shortcut& f) {
  static auto& cAdd = msc::obs::counter("nu.adds");
  cAdd.add(1);
  current_ += gainIfAdd(f);
  covered_ |= coverage_[static_cast<std::size_t>(f.a)];
  covered_ |= coverage_[static_cast<std::size_t>(f.b)];
}

}  // namespace msc::core
