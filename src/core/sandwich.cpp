#include "core/sandwich.h"

#include <cmath>

#include "core/bounds.h"
#include "core/sigma.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/cancel.h"

namespace msc::core {

SandwichResult sandwichApproximation(const Instance& instance,
                                     const CandidateSet& candidates,
                                     const SolveOptions& options,
                                     std::vector<double> pairWeights) {
  SigmaEvaluator sigmaEval(instance, pairWeights);
  MuEvaluator muEval(instance, candidates, pairWeights);
  NuEvaluator nuEval(instance, std::move(pairWeights));
  return sandwichApproximation(sigmaEval, muEval, nuEval, sigmaEval, nuEval,
                               candidates, options);
}

SandwichResult sandwichApproximation(IncrementalEvaluator& sigmaEval,
                                     IncrementalEvaluator& muEval,
                                     IncrementalEvaluator& nuEval,
                                     const SetFunction& sigmaFn,
                                     const SetFunction& nuFn,
                                     const CandidateSet& candidates,
                                     const SolveOptions& options) {
  MSC_OBS_SPAN("sandwich.total");
  SandwichResult result;

  // One greedy pass per bound, run in order on this thread at every thread
  // count; each round's gain scan is what uses the pool. nu runs first, so
  // a run cancelled after it finished still certifies its bound. `span`
  // must be a literal (spans keep the pointer) and `spanStat` its
  // "span.<span>" stat.
  static auto& sPassNu = msc::obs::stat("span.sandwich.pass.nu");
  static auto& sPassMu = msc::obs::stat("span.sandwich.pass.mu");
  static auto& sPassSigma = msc::obs::stat("span.sandwich.pass.sigma");
  int passesDone = 0;
  const auto runPass = [&](const char* name, const char* span,
                           msc::obs::Stat& spanStat,
                           IncrementalEvaluator& eval) {
    const msc::obs::ScopedSpan timer(span, spanStat);
    const msc::obs::ScopedProgressStage stage(name);
    GreedyResult pass = greedyMaximize(eval, candidates, options);
    // Per-bound pass progress: each completed pass is one of three
    // sandwich "rounds" (forced past the rate limit so the certified
    // interval's tightening always reaches the sink).
    if (msc::obs::ProgressReporter* const progress =
            msc::obs::currentProgress()) {
      msc::obs::ProgressSnapshot snap;
      snap.solver = "sandwich";
      snap.stage = name;
      snap.round = ++passesDone;
      snap.totalRounds = 3;
      snap.value = pass.value;
      snap.gainEvals = pass.gainEvaluations;
      snap.extra("pass_rounds", static_cast<double>(pass.rounds));
      progress->report(snap, /*force=*/true);
    }
    return pass;
  };
  const GreedyResult nu = runPass("nu", "sandwich.pass.nu", sPassNu, nuEval);
  const GreedyResult mu = runPass("mu", "sandwich.pass.mu", sPassMu, muEval);
  const GreedyResult sg =
      runPass("sigma", "sandwich.pass.sigma", sPassSigma, sigmaEval);

  result.placementMu = mu.placement;
  result.placementSigma = sg.placement;
  result.placementNu = nu.placement;

  result.sigmaOfMu = sigmaFn.value(mu.placement);
  result.sigmaOfSigma = sg.value;  // sigma greedy's own value IS sigma
  result.sigmaOfNu = sigmaFn.value(nu.placement);

  result.nuOfFnu = nuFn.value(nu.placement);
  result.sigmaOfFnu = result.sigmaOfNu;

  // All passes share the request token, so any interruption reason is the
  // same token reason; each interrupted pass contributed its committed
  // prefix and the best-of-three scoring below still holds.
  result.interrupted = mu.interrupted != util::CancelReason::None
                           ? mu.interrupted
                       : sg.interrupted != util::CancelReason::None
                           ? sg.interrupted
                           : nu.interrupted;
  if (nu.interrupted == util::CancelReason::None) {
    // nu >= sigma pointwise and greedy on the monotone submodular nu is
    // (1-1/e)-approximate, so sigma(F*) <= nu(F*) <= nu(F_nu)/(1-1/e).
    result.certifiedUpperBound = result.nuOfFnu / (1.0 - std::exp(-1.0));
  }

  result.placement = mu.placement;
  result.sigma = result.sigmaOfMu;
  result.winner = "mu";
  if (result.sigmaOfSigma > result.sigma) {
    result.placement = sg.placement;
    result.sigma = result.sigmaOfSigma;
    result.winner = "sigma";
  }
  if (result.sigmaOfNu > result.sigma) {
    result.placement = nu.placement;
    result.sigma = result.sigmaOfNu;
    result.winner = "nu";
  }

  result.gainEvaluations =
      mu.gainEvaluations + sg.gainEvaluations + nu.gainEvaluations;

  // Terminal snapshot: the certified optimality interval [sigma, upper]
  // after scoring — this is the bound gap an interrupted reply carries.
  if (msc::obs::ProgressReporter* const progress =
          msc::obs::currentProgress()) {
    msc::obs::ProgressSnapshot snap;
    snap.solver = "sandwich";
    snap.stage = "result";
    snap.round = 3;
    snap.totalRounds = 3;
    snap.value = result.sigma;
    snap.gainEvals = result.gainEvaluations;
    if (result.certifiedUpperBound) {
      snap.extra("upper_bound", *result.certifiedUpperBound);
      snap.extra("bound_gap", *result.certifiedUpperBound - result.sigma);
    }
    if (const auto ratio = result.dataDependentRatio()) {
      snap.extra("data_dependent_ratio", *ratio);
    }
    progress->report(snap, /*force=*/true);
  }

  static auto& cEvalsMu = msc::obs::counter("sandwich.gain_evals.mu");
  static auto& cEvalsSigma = msc::obs::counter("sandwich.gain_evals.sigma");
  static auto& cEvalsNu = msc::obs::counter("sandwich.gain_evals.nu");
  static auto& cWinMu = msc::obs::counter("sandwich.winner.mu");
  static auto& cWinSigma = msc::obs::counter("sandwich.winner.sigma");
  static auto& cWinNu = msc::obs::counter("sandwich.winner.nu");
  cEvalsMu.add(mu.gainEvaluations);
  cEvalsSigma.add(sg.gainEvaluations);
  cEvalsNu.add(nu.gainEvaluations);
  const bool muWon = result.winner == "mu";
  const bool sigmaWon = result.winner == "sigma";
  (muWon ? cWinMu : sigmaWon ? cWinSigma : cWinNu).add(1);
  if (msc::obs::trace::enabled()) {
    const char* winner = muWon ? "mu" : sigmaWon ? "sigma" : "nu";
    msc::obs::trace::instant("sandwich.winner",
                             {{"winner", winner},
                              {"sigma", result.sigma},
                              {"sigma_of_mu", result.sigmaOfMu},
                              {"sigma_of_sigma", result.sigmaOfSigma},
                              {"sigma_of_nu", result.sigmaOfNu}});
  }
  return result;
}

}  // namespace msc::core
