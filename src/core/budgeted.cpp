#include "core/budgeted.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/gain_scan.h"
#include "obs/context.h"
#include "obs/progress.h"
#include "util/cancel.h"
#include "util/parallel.h"

namespace msc::core {

CostFunction unitCost() {
  return [](const Shortcut&) { return 1.0; };
}

CostFunction distanceCost(const std::vector<msc::gen::Point>& positions,
                          double fixedCost, double perMeter) {
  if (fixedCost < 0.0 || perMeter < 0.0) {
    throw std::invalid_argument("distanceCost: negative cost parameters");
  }
  return [positions, fixedCost, perMeter](const Shortcut& f) {
    const auto& pa = positions.at(static_cast<std::size_t>(f.a));
    const auto& pb = positions.at(static_cast<std::size_t>(f.b));
    return fixedCost + perMeter * msc::gen::euclidean(pa, pb);
  };
}

namespace {

struct GreedyRun {
  ShortcutList placement;
  double value = 0.0;
  double cost = 0.0;
  std::size_t gainEvaluations = 0;
  util::CancelReason interrupted = util::CancelReason::None;
};

// One greedy pass; when `byDensity` the selection criterion is gain/cost,
// otherwise raw gain. Candidates that no longer fit the remaining budget
// are skipped (not aborted on — a cheaper useful candidate may still fit).
GreedyRun run(IncrementalEvaluator& eval, const CandidateSet& candidates,
              const std::vector<double>& costs, double budget, bool byDensity,
              int threads) {
  eval.reset();
  GreedyRun out;
  std::vector<char> chosen(candidates.size(), 0);
  double remaining = budget;
  util::CancelToken* const cancel = msc::obs::currentCancelToken();
  msc::obs::ProgressReporter* const progress = msc::obs::currentProgress();
  for (;;) {
    if (cancel != nullptr && cancel->cancelled()) {
      out.interrupted = cancel->reason();
      break;
    }
    const detail::ScanBest best = detail::gainScan(
        eval, candidates, threads, /*requirePositiveGain=*/true,
        [&](std::size_t c) { return chosen[c] != 0 || costs[c] > remaining; },
        [&](double gain, std::size_t c) {
          return byDensity ? gain / costs[c] : gain;
        });
    out.gainEvaluations += best.evaluations;
    if (cancel != nullptr && cancel->cancelled()) {
      // Mid-scan interruption: the scan may have skipped chunks, so the
      // pick is untrustworthy — keep the committed prefix.
      out.interrupted = cancel->reason();
      break;
    }
    if (best.index < 0) break;
    const auto idx = static_cast<std::size_t>(best.index);
    chosen[idx] = 1;
    remaining -= costs[idx];
    out.cost += costs[idx];
    eval.add(candidates[idx]);
    out.placement.push_back(candidates[idx]);
    if (progress != nullptr) {
      msc::obs::ProgressSnapshot snap;
      snap.solver = "greedy.budgeted";
      snap.stage = byDensity ? "density" : "uniform";
      snap.round = static_cast<int>(out.placement.size());
      // No fixed round count: the rule stops when nothing fits or helps.
      snap.totalRounds = -1;
      snap.value = eval.currentValue();
      snap.gainEvals = out.gainEvaluations;
      snap.extra("cost", out.cost);
      snap.extra("budget_remaining", remaining);
      progress->report(snap);
    }
  }
  out.value = eval.currentValue();
  return out;
}

}  // namespace

BudgetedResult budgetedGreedy(IncrementalEvaluator& eval,
                              const CandidateSet& candidates,
                              const CostFunction& cost, double budget,
                              const SolveOptions& options) {
  if (!(budget >= 0.0) || !std::isfinite(budget)) {
    throw std::invalid_argument("budgetedGreedy: budget must be finite >= 0");
  }
  const int threads = util::resolveThreadCount(options.threads);
  std::vector<double> costs(candidates.size());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    costs[c] = cost(candidates[c]);
    if (!(costs[c] > 0.0) || !std::isfinite(costs[c])) {
      throw std::invalid_argument(
          "budgetedGreedy: every candidate cost must be finite and > 0");
    }
  }

  const GreedyRun density = run(eval, candidates, costs, budget, true, threads);
  const GreedyRun uniform =
      run(eval, candidates, costs, budget, false, threads);

  BudgetedResult result;
  result.interrupted = density.interrupted != util::CancelReason::None
                           ? density.interrupted
                           : uniform.interrupted;
  result.gainEvaluations = density.gainEvaluations + uniform.gainEvaluations;
  result.rounds = static_cast<int>(density.placement.size() +
                                   uniform.placement.size());
  result.densityPlacement = density.placement;
  result.densityValue = density.value;
  result.uniformPlacement = uniform.placement;
  result.uniformValue = uniform.value;
  if (density.value >= uniform.value) {
    result.placement = density.placement;
    result.value = density.value;
    result.cost = density.cost;
    result.winner = "density";
    eval.evaluate(result.placement);  // leave evaluator at returned state
  } else {
    result.placement = uniform.placement;
    result.value = uniform.value;
    result.cost = uniform.cost;
    result.winner = "uniform";
  }
  return result;
}

}  // namespace msc::core
