#include "mc/solver.h"

#include <utility>

#include "core/greedy.h"
#include "core/sandwich.h"

namespace msc::mc {
namespace {

/// Fills the result fields that depend on the evaluator's final state.
/// The evaluator must currently hold `placement`.
void finishResult(McSolveResult& result, const ReliabilityEvaluator& eval,
                  const McOptions& mcOptions) {
  result.sigmaHat = static_cast<double>(eval.maintainedCount());
  result.pairs = eval.instance().pairCount();
  result.worlds = eval.worldCount();
  result.estimates = eval.pairEstimates(mcOptions.z);
  result.uncertainPairs = 0;
  for (const PairReliability& pr : result.estimates) {
    if (pr.uncertain) ++result.uncertainPairs;
  }
}

}  // namespace

McSolveResult greedy(const core::Instance& instance,
                     const core::CandidateSet& candidates,
                     const core::SolveOptions& options,
                     const McOptions& mcOptions) {
  const WorldSet worlds(instance.graph(),
                        {.worlds = mcOptions.worlds, .seed = options.seed});
  ReliabilityEvaluator eval(instance, worlds, Objective::MaintainedCount);
  const core::GreedyResult run =
      core::greedyMaximize(eval, candidates, options);

  McSolveResult result;
  result.placement = run.placement;
  result.winner = "mc_greedy";
  result.gainEvaluations = run.gainEvaluations;
  result.rounds = run.rounds;
  result.interrupted = run.interrupted;
  finishResult(result, eval, mcOptions);
  return result;
}

McSolveResult sandwich(const core::Instance& instance,
                       const core::CandidateSet& candidates,
                       const core::SolveOptions& options,
                       const McOptions& mcOptions) {
  const WorldSet worlds(instance.graph(),
                        {.worlds = mcOptions.worlds, .seed = options.seed});

  // Contender 1: greedy directly on σ̂.
  ReliabilityEvaluator hard(instance, worlds, Objective::MaintainedCount);
  const core::GreedyResult hardRun =
      core::greedyMaximize(hard, candidates, options);

  // Contender 2: greedy on the plateau-free Σ R̂ surrogate.
  ReliabilityEvaluator soft(instance, worlds, Objective::TotalReliability);
  const core::GreedyResult softRun =
      core::greedyMaximize(soft, candidates, options);

  // Contender 3: the paper's shortest-path sandwich placement.
  const core::SandwichResult surrogate =
      core::sandwichApproximation(instance, candidates, options);

  // Score every contender under σ̂ on the SAME worlds (common random
  // numbers): re-evaluate through the hard evaluator so ties and gaps are
  // placement differences, never sampling noise. Ties break toward the
  // earlier contender, so the result is deterministic.
  struct Contender {
    const char* name;
    const core::ShortcutList* placement;
  };
  const Contender contenders[] = {
      {"mc_greedy", &hardRun.placement},
      {"mc_soft", &softRun.placement},
      {"surrogate", &surrogate.placement},
  };
  const Contender* best = nullptr;
  double bestSigma = -1.0;
  for (const Contender& c : contenders) {
    const double s = hard.evaluate(*c.placement);
    if (s > bestSigma) {
      bestSigma = s;
      best = &c;
    }
  }
  // Leave the hard evaluator holding the winning placement.
  hard.evaluate(*best->placement);

  McSolveResult result;
  result.placement = *best->placement;
  result.winner = best->name;
  result.gainEvaluations =
      hardRun.gainEvaluations + softRun.gainEvaluations +
      surrogate.gainEvaluations;
  result.rounds = hardRun.rounds;
  result.interrupted = hardRun.interrupted != util::CancelReason::None
                           ? hardRun.interrupted
                       : softRun.interrupted != util::CancelReason::None
                           ? softRun.interrupted
                           : surrogate.interrupted;
  finishResult(result, hard, mcOptions);
  return result;
}

}  // namespace msc::mc
