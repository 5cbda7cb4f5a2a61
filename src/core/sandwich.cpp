#include "core/sandwich.h"

#include <atomic>
#include <cmath>
#include <exception>
#include <thread>

#include "core/bounds.h"
#include "core/sigma.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/parallel.h"

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

  // One greedy pass per bound; every name is a literal (spans and trace
  // lanes keep the pointer).
  struct Pass {
    const char* name;    // progress stage
    const char* span;    // MSC_OBS_SPAN
    const char* thread;  // trace lane when the pass gets its own thread
    IncrementalEvaluator& eval;
    GreedyResult (*maximize)(IncrementalEvaluator&, const CandidateSet&,
                             const SolveOptions&);
    GreedyResult result{};
    std::exception_ptr error{};
  };
  Pass passes[] = {
      {"mu", "sandwich.pass.mu", "sandwich.mu", muEval, lazyGreedyMaximize},
      {"sigma", "sandwich.pass.sigma", nullptr, sigmaEval, greedyMaximize},
      {"nu", "sandwich.pass.nu", "sandwich.nu", nuEval, lazyGreedyMaximize},
  };
  // Per-bound pass progress: each completed pass is one of three sandwich
  // "rounds" (forced past the rate limit so the certified interval's
  // tightening always reaches the sink). Called on whichever thread ran
  // the pass — the reporter is shared and thread-safe.
  std::atomic<int> passesDone{0};
  const auto run = [&](Pass& pass) {
    try {
      MSC_OBS_SPAN(pass.span);
      const msc::obs::ScopedProgressStage stage(pass.name);
      pass.result = pass.maximize(pass.eval, candidates, options);
      msc::obs::ProgressReporter* const progress = msc::obs::currentProgress();
      if (progress == nullptr) return;
      msc::obs::ProgressSnapshot snap;
      snap.solver = "sandwich";
      snap.stage = pass.name;
      snap.round = passesDone.fetch_add(1, std::memory_order_relaxed) + 1;
      snap.totalRounds = 3;
      snap.value = pass.result.value;
      snap.gainEvals = pass.result.gainEvaluations;
      snap.extra("pass_rounds", static_cast<double>(pass.result.rounds));
      progress->report(snap, /*force=*/true);
    } catch (...) {
      pass.error = std::current_exception();
    }
  };
  if (util::resolveThreadCount(options.threads) <= 1) {
    for (Pass& pass : passes) {
      run(pass);
      if (pass.error) std::rethrow_exception(pass.error);
    }
  } else {
    // The three passes touch disjoint evaluators, so they can overlap;
    // their inner gain scans serialize on (and share) the global pool.
    // Each pass is individually deterministic, so the concurrent schedule
    // returns exactly the sequential result. mu and nu get their own
    // threads, sigma runs here. Directly-spawned threads don't inherit the
    // serve request binding the way pool workers do; capture it here and
    // re-bind inside each pass so their trace events, phase notes and CPU
    // time stay attributed.
    msc::obs::RequestContext* const requestCtx = msc::obs::currentRequest();
    const auto spawn = [&](Pass& pass) {
      return std::thread([&run, &pass, requestCtx] {
        // A fresh thread has no trace lane yet, so naming it cannot throw.
        msc::obs::trace::setCurrentThreadName(pass.thread);
        const msc::obs::ScopedRequestBind bind(requestCtx);
        const msc::obs::ScopedCpuAttribution cpu;
        run(pass);
      });
    };
    std::thread muThread = spawn(passes[0]);
    std::thread nuThread = spawn(passes[2]);
    run(passes[1]);
    muThread.join();
    nuThread.join();
    for (const Pass& pass : passes) {
      if (pass.error) std::rethrow_exception(pass.error);
    }
  }
  const GreedyResult& mu = passes[0].result;
  const GreedyResult& sg = passes[1].result;
  const GreedyResult& nu = passes[2].result;

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

  if (msc::obs::trace::enabled()) {
    const char* winner = result.winner == "mu"      ? "mu"
                         : result.winner == "sigma" ? "sigma"
                                                    : "nu";
    msc::obs::trace::instant("sandwich.winner",
                             {{"winner", winner},
                              {"sigma", result.sigma},
                              {"sigma_of_mu", result.sigmaOfMu},
                              {"sigma_of_sigma", result.sigmaOfSigma},
                              {"sigma_of_nu", result.sigmaOfNu}});
  }
  if (msc::obs::enabled()) {
    msc::obs::counter("sandwich.gain_evals.mu").add(mu.gainEvaluations);
    msc::obs::counter("sandwich.gain_evals.sigma").add(sg.gainEvaluations);
    msc::obs::counter("sandwich.gain_evals.nu").add(nu.gainEvaluations);
    msc::obs::counter("sandwich.winner." + result.winner).add(1);
  }
  return result;
}

}  // namespace msc::core
