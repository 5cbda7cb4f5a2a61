// Submodular sandwich bounds for the non-submodular MSC objective
// (paper §V-B).
//
// mu (lower bound): sigma restricted so that every pair's path may cross at
// most ONE shortcut. Then the satisfied-pair set of F is exactly the union
// of per-shortcut satisfied-pair sets — a max-coverage instance, hence
// monotone submodular, and mu(F) <= sigma(F) everywhere (the restriction
// can only lose pairs).
//
// nu (upper bound): weighted coverage of pair endpoints. Endpoint v of a
// shortcut "covers" pair-node x when dist_G(v, x) <= d_t; each pair-node
// weighs (its occurrences among not-yet-base-satisfied pairs) / 2. Any pair
// newly satisfied by F has both endpoints covered (the path segments before
// the first and after the last shortcut stay within d_t), so
// nu(F) >= sigma(F); weighted coverage is monotone submodular.
//
// Both evaluators tolerate instances where some pairs are satisfied with no
// shortcuts at all: those pairs contribute a constant to both bounds, which
// keeps mu <= sigma <= nu valid for arbitrary instances, not only the
// paper's "every sampled pair starts unsatisfied" setting.
//
// Pair weights (core/sigma.h checkPairWeights; empty = 1.0 per pair) carry
// over unchanged: mu sums the weights of its covered pairs, and a pair-node
// weighs half the sum of its open pairs' weights. Both stay monotone
// submodular and still bracket the weighted sigma — the §V-B2 arguments
// never use that the weights are 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/candidates.h"
#include "core/instance.h"
#include "core/set_function.h"
#include "util/bitset.h"

namespace msc::core {

/// Pairs satisfied by the single shortcut f over base distances:
/// bit i is set iff min(d(u,w), d(u,a) + d(b,w), d(u,b) + d(a,w)) <= d_t
/// with u's row read at w, a and b, and w's row standing in for w's column.
util::Bitset oneShortcutSet(const Instance& instance, const Shortcut& f);

/// Lower bound mu: max coverage over per-shortcut satisfied-pair sets.
///
/// A candidate's set is the pairs with d(u,w) <= d_t, which every
/// candidate shares, plus the open pairs it satisfies alone. The latter
/// are built once from the σ scan's ball-product visits over base rows
/// (BallProduct, core/sigma.h) and kept sparse: ascending pair lists, CSR
/// over the candidates that have any, so memory follows the hits, not
/// candidates x pairs.
class MuEvaluator final : public SetFunction, public IncrementalEvaluator {
 public:
  /// Sets for `candidates` are precomputed; shortcuts outside the
  /// candidate set are still handled (computed on the fly). `pairWeights`
  /// as in checkPairWeights. `candidates` must outlive the evaluator.
  MuEvaluator(const Instance& instance, const CandidateSet& candidates,
              std::vector<double> pairWeights = {});

  // SetFunction
  double value(const ShortcutList& placement) const override;
  std::string name() const override { return "mu"; }

  // IncrementalEvaluator
  void reset() override;
  double currentValue() const override;
  double gainIfAdd(const Shortcut& f) const override;
  void add(const Shortcut& f) override;
  /// One pass over the sparse sets when `candidates` is the set the
  /// evaluator was built for; the gainIfAdd loop otherwise.
  void scanGains(const CandidateSet& candidates, std::span<double> gains,
                 int threads, std::span<const std::uint8_t> skip) override;

  /// Pairs satisfied by the single shortcut f under the one-shortcut
  /// restriction (includes base-satisfied pairs).
  util::Bitset satisfiedBy(const Shortcut& f) const;

 private:
  // Open pairs candidate c satisfies alone, ascending (empty if none).
  std::span<const std::uint32_t> hitsOf(std::size_t c) const;
  // Weights of the pairs in `hits` or in extra_ not yet covered, added in
  // ascending pair order.
  double uncoveredWeight(std::span<const std::uint32_t> hits) const;
  // acc |= the one-shortcut set of f.
  void orInto(util::Bitset& acc, const Shortcut& f) const;

  const Instance* instance_;
  const CandidateSet* candidates_;
  std::vector<double> weights_;  // [pair]
  // CSR over the candidates with hits: row r is candidate hitCandidate_[r]
  // (ascending), its pairs are hitPairs_[hitBegin_[r], hitBegin_[r + 1]).
  std::vector<std::size_t> hitCandidate_;
  std::vector<std::size_t> hitBegin_;
  std::vector<std::uint32_t> hitPairs_;
  util::Bitset shared_;  // pairs with row_u[w] <= d_t: in every set
  // shared_ minus baseSatisfied_, ascending. Empty unless d(u,w) and
  // d(w,u) straddle d_t by rounding (baseSatisfied reads the lower
  // endpoint's row); kept so every gain matches the set semantics exactly.
  std::vector<std::uint32_t> extra_;
  util::Bitset baseSatisfied_;
  util::Bitset covered_;  // incremental state
};

/// Upper bound nu: weighted coverage of pair endpoints.
class NuEvaluator final : public SetFunction, public IncrementalEvaluator {
 public:
  /// `pairWeights` as in checkPairWeights.
  explicit NuEvaluator(const Instance& instance,
                       std::vector<double> pairWeights = {});

  // SetFunction
  double value(const ShortcutList& placement) const override;
  std::string name() const override { return "nu"; }

  // IncrementalEvaluator
  void reset() override;
  double currentValue() const override { return current_; }
  double gainIfAdd(const Shortcut& f) const override;
  void add(const Shortcut& f) override;
  /// Computes every node's first-endpoint gain once, then continues it per
  /// candidate over coverage(b) minus the covered and coverage(a) nodes.
  void scanGains(const CandidateSet& candidates, std::span<double> gains,
                 int threads, std::span<const std::uint8_t> skip) override;
  /// When `candidates` holds every pair of its endpoints: scores each
  /// endpoint alone, ranks the endpoints by score and walks the rank pairs
  /// row by row while the sum of their two scores (an upper bound on the
  /// pair's gain, widened for rounding) reaches the best gain found,
  /// computing scanGains' exact gain for each pair walked
  /// (docs/ALGORITHMS.md §2). Runs on the calling thread and leaves
  /// `scratch` alone. Any other set takes the default scan.
  GainPick argmaxGain(const CandidateSet& candidates, int threads,
                      std::span<const std::uint8_t> skip,
                      std::vector<double>& scratch) override;

  /// Weight of pair-node index i: half the summed weights of the
  /// initially-unsatisfied pairs it belongs to (with unit weights, its
  /// occurrences among them, halved).
  double nodeWeight(std::size_t pairNodeIndex) const {
    return nodeWeights_.at(pairNodeIndex);
  }

 private:
  double gainOfEndpoint(NodeId v, const util::Bitset& covered) const;
  // gainIfAdd(a, b) from gainOfEndpoint(a) = `first` and the words of
  // ~covered & ~coverage(a) = `open`: adds the weights of coverage(b) &
  // open in ascending bit order.
  double pairGain(double first, NodeId b, const std::uint64_t* open) const;

  const Instance* instance_;
  std::vector<util::Bitset> coverage_;  // [graph node] -> pair-node bits
  std::vector<double> nodeWeights_;     // [pair-node index]
  double baseConstant_ = 0.0;           // weight of base-satisfied pairs
  util::Bitset covered_;                // incremental state over pair-nodes
  double current_ = 0.0;
};

}  // namespace msc::core
