#include "core/greedy.h"

#include <stdexcept>
#include <vector>

#include "core/gain_scan.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/parallel.h"

namespace msc::core {

GreedyResult greedyMaximize(IncrementalEvaluator& eval,
                            const CandidateSet& candidates,
                            const SolveOptions& options) {
  if (options.k < 0) throw std::invalid_argument("greedy: negative budget k");
  const int threads = util::resolveThreadCount(options.threads);
  MSC_OBS_SPAN("greedy.pass");
  eval.reset();
  GreedyResult result;
  std::vector<char> chosen(candidates.size(), 0);
  // Request-scoped introspection hooks: one thread-local load each at pass
  // entry, pointer checks per round when unbound (§18 zero-overhead rule).
  util::CancelToken* const cancel = msc::obs::currentCancelToken();
  msc::obs::ProgressReporter* const progress = msc::obs::currentProgress();
  const char* const stage = msc::obs::currentProgressStage();
  // One sample per round (each round is a full candidate scan, so the two
  // clock reads are noise); recorded even with metrics disabled so the
  // serve layer's Prometheus export always has gain-scan tail latency.
  static auto& scanHist = msc::obs::histogram("greedy.round_scan_seconds");
  for (int round = 0; round < options.k; ++round) {
    if (cancel != nullptr && cancel->cancelled()) {
      result.interrupted = cancel->reason();
      break;
    }
    const detail::ScanBest best = [&] {
      MSC_OBS_SPAN("greedy.round_scan", scanHist, msc::obs::Phase::RoundScan);
      return detail::gainScan(
          eval, candidates, threads, /*requirePositiveGain=*/true,
          [&](std::size_t c) { return chosen[c] != 0; },
          [](double gain, std::size_t) { return gain; });
    }();
    result.gainEvaluations += best.evaluations;
    if (cancel != nullptr && cancel->cancelled()) {
      // The token fired mid-scan, so the scan may have skipped chunks:
      // discard the (possibly partial) pick and keep the committed prefix.
      result.interrupted = cancel->reason();
      break;
    }
    if (best.index < 0) break;  // nothing improves the objective
    const auto idx = static_cast<std::size_t>(best.index);
    chosen[idx] = 1;
    eval.add(candidates[idx]);
    result.placement.push_back(candidates[idx]);
    result.trajectory.push_back(eval.currentValue());
    ++result.rounds;
    if (msc::obs::trace::enabled()) {
      msc::obs::trace::instant("greedy.round",
                               {{"round", round},
                                {"edge_a", candidates[idx].a},
                                {"edge_b", candidates[idx].b},
                                {"gain", best.gain},
                                {"gain_evals", best.evaluations},
                                {"value", eval.currentValue()}});
    }
    if (progress != nullptr) {
      msc::obs::ProgressSnapshot snap;
      snap.solver = "greedy";
      snap.stage = stage;
      snap.round = result.rounds;
      snap.totalRounds = options.k;
      snap.value = result.trajectory.back();
      snap.gainEvals = result.gainEvaluations;
      snap.extra("gain", best.gain);
      snap.extra("edge_a", static_cast<double>(candidates[idx].a));
      snap.extra("edge_b", static_cast<double>(candidates[idx].b));
      progress->report(snap);
    }
  }
  result.value = eval.currentValue();
  if (msc::obs::enabled()) {
    msc::obs::counter("greedy.rounds")
        .add(static_cast<std::uint64_t>(result.rounds));
    msc::obs::counter("greedy.gain_evals").add(result.gainEvaluations);
  }
  return result;
}

}  // namespace msc::core
