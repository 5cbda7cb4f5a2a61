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
#pragma once

#include <memory>
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

/// oneShortcutSet for every candidate, bit-identical to calling it per
/// candidate. Pairs satisfied without shortcuts are copied in; the rest are
/// tested only against candidates whose endpoints both reach them within
/// d_t (core/pair_ball.h), so the build costs O(m * |endpoints| + C * m/64
/// + hits) instead of O(C * m).
std::vector<util::Bitset> oneShortcutSets(const Instance& instance,
                                          const CandidateSet& candidates);

/// Lower bound mu: max coverage over per-shortcut satisfied-pair bitsets.
class MuEvaluator final : public SetFunction, public IncrementalEvaluator {
 public:
  /// Bitsets for `candidates` are precomputed; shortcuts outside the
  /// candidate set are still handled (computed on the fly).
  MuEvaluator(const Instance& instance, const CandidateSet& candidates);

  // SetFunction
  double value(const ShortcutList& placement) const override;
  std::string name() const override { return "mu"; }

  // IncrementalEvaluator
  void reset() override;
  double currentValue() const override {
    return static_cast<double>(covered_.count());
  }
  double gainIfAdd(const Shortcut& f) const override;
  void add(const Shortcut& f) override;

  /// Pairs satisfied by the single shortcut f under the one-shortcut
  /// restriction (includes base-satisfied pairs).
  util::Bitset satisfiedBy(const Shortcut& f) const;

 private:
  const util::Bitset& bitsetFor(const Shortcut& f, util::Bitset& scratch) const;

  const Instance* instance_;
  const CandidateSet* candidates_;
  std::vector<util::Bitset> perCandidate_;  // [candidate index] -> pair bits
  util::Bitset baseSatisfied_;
  util::Bitset covered_;  // incremental state
};

/// Upper bound nu: weighted coverage of pair endpoints.
class NuEvaluator final : public SetFunction, public IncrementalEvaluator {
 public:
  explicit NuEvaluator(const Instance& instance);

  // SetFunction
  double value(const ShortcutList& placement) const override;
  std::string name() const override { return "nu"; }

  // IncrementalEvaluator
  void reset() override;
  double currentValue() const override { return current_; }
  double gainIfAdd(const Shortcut& f) const override;
  void add(const Shortcut& f) override;

  /// Weight of pair-node index i (occurrences among initially-unsatisfied
  /// pairs, halved).
  double nodeWeight(std::size_t pairNodeIndex) const {
    return weights_.at(pairNodeIndex);
  }

 private:
  double gainOfEndpoint(NodeId v, const util::Bitset& covered) const;

  const Instance* instance_;
  std::vector<util::Bitset> coverage_;  // [graph node] -> pair-node bits
  std::vector<double> weights_;         // [pair-node index]
  double baseConstant_ = 0.0;           // count of base-satisfied pairs
  util::Bitset covered_;                // incremental state over pair-nodes
  double current_ = 0.0;
};

}  // namespace msc::core
