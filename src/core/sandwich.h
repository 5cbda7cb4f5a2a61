// Sandwich approximation algorithm (AA) for general MSC (paper §V-B).
//
// sigma is not submodular, so greedy alone has no guarantee. The sandwich
// strategy runs greedy on the submodular lower bound mu, on sigma itself,
// and on the submodular upper bound nu, then returns whichever of the three
// placements scores best under sigma:
//     F_app = argmax_{F in {F_mu, F_sigma, F_nu}} sigma(F).
// The data-dependent guarantee is
//     sigma(F_app) >= sigma(F_nu)/nu(F_nu) * (1 - 1/e) * sigma(F*),
// and Tables I/II of the paper report exactly the sigma(F_nu)/nu(F_nu)
// factor — exposed here as dataDependentRatio().
//
// All three passes are greedyMaximize, run one after another (nu first,
// then mu and sigma); with options.threads > 1 each round's gain scan is
// sharded over the global pool, and the results are bit-identical at every
// thread count.
#pragma once

#include <optional>
#include <vector>

#include "core/candidates.h"
#include "core/greedy.h"
#include "core/options.h"
#include "core/set_function.h"

namespace msc::core {

struct SandwichResult {
  /// Best-of-three placement and its sigma value.
  ShortcutList placement;
  double sigma = 0.0;

  /// Which component won: "mu", "sigma" or "nu".
  std::string winner;

  /// The three greedy runs (placements + their sigma values).
  ShortcutList placementMu, placementSigma, placementNu;
  double sigmaOfMu = 0.0, sigmaOfSigma = 0.0, sigmaOfNu = 0.0;

  /// nu(F_nu) and sigma(F_nu): the pieces of the reported ratio.
  double nuOfFnu = 0.0;
  double sigmaOfFnu = 0.0;

  // --- observability (always filled, independent of msc::obs state) ---
  /// Candidate gains scored, summed over the three greedy passes.
  std::size_t gainEvaluations = 0;
  /// Why the run stopped early (None = all three passes completed). The
  /// shared request token interrupts every pass; each returns its
  /// committed prefix (empty for a pass that had not started) and the
  /// best-of-three scoring still applies, so the result is a valid anytime
  /// placement.
  util::CancelReason interrupted = util::CancelReason::None;
  /// Certified upper bound on sigma(F*): nu(F_nu) / (1 - 1/e), valid
  /// because nu >= sigma pointwise and greedy on the monotone
  /// submodular nu is (1 - 1/e)-approximate. Only set when the nu pass ran
  /// to completion (an interrupted nu prefix certifies nothing), so
  /// `*certifiedUpperBound - sigma` is the optimality gap an interrupted
  /// run can still promise (docs/ALGORITHMS.md §18).
  std::optional<double> certifiedUpperBound;

  /// sigma(F_nu) / nu(F_nu); nullopt when nu(F_nu) == 0 (no pair-node is
  /// coverable at all — then any placement is optimal anyway).
  std::optional<double> dataDependentRatio() const {
    if (nuOfFnu <= 0.0) return std::nullopt;
    return sigmaOfFnu / nuOfFnu;
  }
};

/// Runs the three greedy passes. `sigma`, `mu`, `nu` must evaluate the same
/// instance (or the same dynamic series); `sigmaFn` is used to score all
/// three placements. Each pass is plain greedy (greedyMaximize).
SandwichResult sandwichApproximation(IncrementalEvaluator& sigmaEval,
                                     IncrementalEvaluator& muEval,
                                     IncrementalEvaluator& nuEval,
                                     const SetFunction& sigmaFn,
                                     const SetFunction& nuFn,
                                     const CandidateSet& candidates,
                                     const SolveOptions& options);

/// Convenience wrapper for a single static instance: builds the three
/// evaluators internally, all over `pairWeights` (one per pair, finite and
/// >= 0; empty = 1.0 each, the paper's unweighted objective).
class Instance;
SandwichResult sandwichApproximation(const Instance& instance,
                                     const CandidateSet& candidates,
                                     const SolveOptions& options,
                                     std::vector<double> pairWeights = {});

}  // namespace msc::core
