#include "core/ea.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace msc::core {

namespace {

struct Archived {
  ShortcutList placement;  // kept sorted
  double value = 0.0;
};

// Weak dominance of `a` over `b` in (value max, size min).
bool dominates(const Archived& a, const Archived& b) {
  return a.value >= b.value && a.placement.size() <= b.placement.size();
}

}  // namespace

EaResult evolutionaryAlgorithm(const SetFunction& objective,
                               const CandidateSet& candidates,
                               const SolveOptions& options,
                               const EaConfig& config) {
  const int k = options.k;
  if (k < 0) throw std::invalid_argument("EA: negative budget");
  if (config.iterations < 0) throw std::invalid_argument("EA: negative r");
  if (candidates.empty()) {
    EaResult empty;
    empty.value = objective.value({});
    empty.bestByIteration.assign(static_cast<std::size_t>(config.iterations),
                                 empty.value);
    empty.archiveSize = 1;
    empty.gainEvaluations = 1;
    empty.iterations = config.iterations;
    return empty;
  }
  const double flipP =
      config.flipProbability.value_or(1.0 / static_cast<double>(candidates.size()));
  if (!(flipP > 0.0) || flipP > 1.0) {
    throw std::invalid_argument("EA: flip probability outside (0, 1]");
  }
  const std::size_t sizeCap =
      config.sizeCapFactor > 0
          ? static_cast<std::size_t>(config.sizeCapFactor) *
                static_cast<std::size_t>(std::max(k, 1))
          : candidates.size();

  MSC_OBS_SPAN("ea.run");
  std::uint64_t mutationFlips = 0;
  std::uint64_t offspringEvals = 0;

  util::Rng rng(options.seed);
  std::vector<Archived> archive;
  archive.push_back({{}, objective.value({})});

  auto bestFeasible = [&]() -> const Archived& {
    const Archived* best = nullptr;
    for (const Archived& a : archive) {
      if (a.placement.size() > static_cast<std::size_t>(k)) continue;
      if (best == nullptr || a.value > best->value) best = &a;
    }
    // The empty placement is always archived and feasible.
    return *best;
  };

  EaResult result;
  result.bestByIteration.reserve(static_cast<std::size_t>(config.iterations));

  util::CancelToken* const cancel = msc::obs::currentCancelToken();
  msc::obs::ProgressReporter* const progress = msc::obs::currentProgress();
  const auto reportGeneration = [&](int iter) {
    if (progress == nullptr) return;
    msc::obs::ProgressSnapshot snap;
    snap.solver = "ea";
    snap.round = iter + 1;
    snap.totalRounds = config.iterations;
    snap.value = result.bestByIteration.back();
    snap.gainEvals = offspringEvals + 1;
    // Archive (Pareto-front) size is the GSEMO diversity signal.
    snap.extra("archive_size", static_cast<double>(archive.size()));
    progress->report(snap);
  };

  int iterationsRun = 0;
  for (int iter = 0; iter < config.iterations; ++iter) {
    if (cancel != nullptr && cancel->cancelled()) {
      result.interrupted = cancel->reason();
      break;
    }
    ++iterationsRun;
    const Archived& parent = archive[rng.below(archive.size())];

    // Uniform bit-flip mutation over the candidate universe. Geometric
    // skipping visits only the flipped indices: O(expected flips), not
    // O(|candidates|).
    ShortcutList child = parent.placement;
    bool mutated = false;
    auto flip = [&](const Shortcut& f) {
      const auto it = std::lower_bound(child.begin(), child.end(), f);
      if (it != child.end() && *it == f) {
        child.erase(it);
      } else {
        child.insert(it, f);
      }
      mutated = true;
      ++mutationFlips;
    };
    if (flipP >= 1.0) {
      for (std::size_t c = 0; c < candidates.size(); ++c) flip(candidates[c]);
    } else {
      const double logKeep = std::log1p(-flipP);  // log(1 - p) < 0
      std::size_t idx = 0;
      while (idx < candidates.size()) {
        const double u = rng.uniform();
        // Number of non-flipped candidates before the next flip.
        const double skip = std::floor(std::log1p(-u) / logKeep);
        if (skip >= static_cast<double>(candidates.size() - idx)) break;
        idx += static_cast<std::size_t>(skip);
        flip(candidates[idx]);
        ++idx;
      }
    }
    if (!mutated || child.size() > sizeCap) {
      result.bestByIteration.push_back(bestFeasible().value);
      reportGeneration(iter);
      continue;
    }

    Archived offspring{std::move(child), 0.0};
    offspring.value = objective.value(offspring.placement);
    ++offspringEvals;

    bool dominated = false;
    for (const Archived& a : archive) {
      if (dominates(a, offspring)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      std::erase_if(archive, [&](const Archived& a) {
        // Keep the empty solution as the seed for small placements (it is
        // only dominated when some equal-size solution ties it, i.e. never,
        // since |{}| = 0 is minimal and value >= value({}) is required).
        return dominates(offspring, a);
      });
      archive.push_back(std::move(offspring));
    }
    result.bestByIteration.push_back(bestFeasible().value);
    if (msc::obs::enabled()) {
      // Pareto-front (archive) size over time; the exporter reports its
      // min/mean/max trajectory.
      static auto& sArchive = msc::obs::stat("ea.archive_size");
      sArchive.record(static_cast<double>(archive.size()));
    }
    if (msc::obs::trace::enabled()) {
      // Timeline of the run (validates the paper's Theorem 6 iteration
      // claims): one instant per generation plus a best-σ counter track.
      const double best = result.bestByIteration.back();
      msc::obs::trace::instant("ea.generation",
                               {{"generation", iter},
                                {"archive_size", archive.size()},
                                {"best_sigma", best}});
      msc::obs::trace::counter("ea.best_sigma", best);
    }
    reportGeneration(iter);
  }

  const Archived& best = bestFeasible();
  result.placement = best.placement;
  result.value = best.value;
  result.archiveSize = archive.size();
  result.gainEvaluations = offspringEvals + 1;  // + the initial archive seed
  result.iterations = iterationsRun;

  if (msc::obs::enabled()) {
    msc::obs::counter("ea.generations")
        .add(static_cast<std::uint64_t>(iterationsRun));
    msc::obs::counter("ea.mutation_flips").add(mutationFlips);
    msc::obs::counter("ea.offspring_evals").add(offspringEvals);
  }
  return result;
}

}  // namespace msc::core
