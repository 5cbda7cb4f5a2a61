#include "core/aea.h"

#include <algorithm>
#include <stdexcept>

#include "core/gain_scan.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace msc::core {

namespace {

struct Member {
  ShortcutList placement;
  double value = 0.0;
};

}  // namespace

AeaResult adaptiveEvolutionaryAlgorithm(IncrementalEvaluator& eval,
                                        const CandidateSet& candidates,
                                        const SolveOptions& options,
                                        const AeaConfig& config) {
  const int k = options.k;
  const int threads = util::resolveThreadCount(options.threads);
  if (k < 0) throw std::invalid_argument("AEA: negative budget");
  if (config.iterations < 0) throw std::invalid_argument("AEA: negative r");
  if (config.populationSize < 1) {
    throw std::invalid_argument("AEA: population size must be >= 1");
  }
  if (config.delta < 0.0 || config.delta > 1.0) {
    throw std::invalid_argument("AEA: delta outside [0, 1]");
  }
  if (static_cast<std::size_t>(k) > candidates.size()) {
    throw std::invalid_argument("AEA: budget exceeds candidate universe");
  }

  MSC_OBS_SPAN("aea.run");
  std::uint64_t greedySwaps = 0;
  std::uint64_t randomSwaps = 0;
  std::uint64_t evaluations = 0;
  int iterationsRun = config.iterations;
  const auto finishResult = [&](AeaResult& r) {
    r.gainEvaluations = evaluations;
    r.iterations = iterationsRun;
  };

  util::Rng rng(options.seed);
  AeaResult result;
  result.bestByIteration.reserve(static_cast<std::size_t>(config.iterations));

  if (k == 0 || candidates.empty()) {
    result.value = eval.evaluate({});
    ++evaluations;
    result.bestByIteration.assign(static_cast<std::size_t>(config.iterations),
                                  result.value);
    finishResult(result);
    return result;
  }

  // Initial member: a uniformly random size-k placement.
  std::vector<Member> population;
  {
    Member first;
    for (const std::size_t idx :
         rng.sampleWithoutReplacement(candidates.size(),
                                      static_cast<std::size_t>(k))) {
      first.placement.push_back(candidates[idx]);
    }
    first.value = eval.evaluate(first.placement);
    ++evaluations;
    population.push_back(std::move(first));
  }

  auto bestMember = [&]() -> const Member& {
    const Member* best = &population.front();
    for (const Member& m : population) {
      if (m.value > best->value) best = &m;
    }
    return *best;
  };

  util::CancelToken* const cancel = msc::obs::currentCancelToken();
  msc::obs::ProgressReporter* const progress = msc::obs::currentProgress();

  for (int iter = 0; iter < config.iterations; ++iter) {
    if (cancel != nullptr && cancel->cancelled()) {
      result.interrupted = cancel->reason();
      iterationsRun = iter;
      break;
    }
    ShortcutList f = population[rng.below(population.size())].placement;

    if (rng.uniform() <= 1.0 - config.delta) {
      ++greedySwaps;
      // Greedy swap. Removal: keep the k-1 edges whose retention preserves
      // the most value, i.e. drop argmax_f sigma(F \ {f}).
      std::size_t dropIdx = 0;
      double bestRemoveValue = -1.0;
      for (std::size_t i = 0; i < f.size(); ++i) {
        ShortcutList without;
        without.reserve(f.size() - 1);
        for (std::size_t j = 0; j < f.size(); ++j) {
          if (j != i) without.push_back(f[j]);
        }
        const double v = eval.evaluate(without);
        ++evaluations;
        if (v > bestRemoveValue) {
          bestRemoveValue = v;
          dropIdx = i;
        }
      }
      f.erase(f.begin() + static_cast<long>(dropIdx));

      // Greedy add: argmax_{f' not in F} sigma(F ∪ {f'}). Unlike plain
      // greedy there is no positive-gain requirement — a swap always
      // completes — so the scan falls back to the first non-member.
      eval.evaluate(f);  // state = F \ {dropped}
      ++evaluations;
      // Same phase as the greedy round scans: a full candidate sweep.
      const detail::ScanBest add = [&] {
        MSC_OBS_SPAN("aea.add_scan", msc::obs::Phase::RoundScan);
        return detail::gainScan(
            eval, candidates, threads, /*requirePositiveGain=*/false,
            [&](std::size_t c) { return contains(f, candidates[c]); },
            [](double gain, std::size_t) { return gain; });
      }();
      evaluations += add.evaluations;
      if (add.index < 0) {
        // Only possible when the cancel token fired during the scan:
        // discard the half-built swap, keep the population.
        result.interrupted =
            cancel != nullptr ? cancel->reason() : util::CancelReason::None;
        iterationsRun = iter;
        break;
      }
      f.push_back(candidates[static_cast<std::size_t>(add.index)]);
    } else {
      ++randomSwaps;
      // Random swap: one random out, one random (distinct, non-member) in.
      const std::size_t out = rng.below(f.size());
      f.erase(f.begin() + static_cast<long>(out));
      for (;;) {
        const Shortcut& cand = candidates[rng.below(candidates.size())];
        if (!contains(f, cand)) {
          f.push_back(cand);
          break;
        }
      }
    }

    Member offspring{std::move(f), 0.0};
    offspring.value = eval.evaluate(offspring.placement);
    ++evaluations;

    if (population.size() < static_cast<std::size_t>(config.populationSize)) {
      population.push_back(std::move(offspring));
    } else {
      std::size_t worst = 0;
      for (std::size_t i = 1; i < population.size(); ++i) {
        if (population[i].value < population[worst].value) worst = i;
      }
      if (population[worst].value < offspring.value) {
        population[worst] = std::move(offspring);
      }
    }
    result.bestByIteration.push_back(bestMember().value);
    if (msc::obs::enabled()) {
      static auto& sPop = msc::obs::stat("aea.population_size");
      sPop.record(static_cast<double>(population.size()));
    }
    if (msc::obs::trace::enabled()) {
      // Per-generation timeline (Theorem 7 / Fig. 4 iteration trajectory).
      const double best = result.bestByIteration.back();
      msc::obs::trace::instant("aea.generation",
                               {{"generation", iter},
                                {"population_size", population.size()},
                                {"best_sigma", best},
                                {"evaluations", evaluations}});
      msc::obs::trace::counter("aea.best_sigma", best);
    }
    if (progress != nullptr) {
      msc::obs::ProgressSnapshot snap;
      snap.solver = "aea";
      snap.round = iter + 1;
      snap.totalRounds = config.iterations;
      snap.value = result.bestByIteration.back();
      snap.gainEvals = evaluations;
      snap.extra("population_size", static_cast<double>(population.size()));
      // Best-vs-worst spread inside the population: the diversity left for
      // the swap operators to exploit.
      double worstValue = population.front().value;
      for (const Member& m : population) {
        worstValue = std::min(worstValue, m.value);
      }
      snap.extra("value_spread", result.bestByIteration.back() - worstValue);
      progress->report(snap);
    }
  }

  const Member& best = bestMember();
  result.placement = best.placement;
  result.value = best.value;
  finishResult(result);

  if (msc::obs::enabled()) {
    msc::obs::counter("aea.generations")
        .add(static_cast<std::uint64_t>(iterationsRun));
    msc::obs::counter("aea.greedy_swaps").add(greedySwaps);
    msc::obs::counter("aea.random_swaps").add(randomSwaps);
    msc::obs::counter("aea.evaluations").add(evaluations);
  }
  return result;
}

}  // namespace msc::core
