#include "core/greedy.h"

#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/gain_scan.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/parallel.h"

namespace msc::core {

namespace {

void checkBudget(int k) {
  if (k < 0) throw std::invalid_argument("greedy: negative budget k");
}

// Publishes a finished pass's counters under the given prefix
// ("greedy" / "greedy.lazy").
void publishPass(const char* prefix, const GreedyResult& result) {
  if (!msc::obs::enabled()) return;
  const std::string p(prefix);
  msc::obs::counter(p + ".rounds").add(static_cast<std::uint64_t>(result.rounds));
  msc::obs::counter(p + ".gain_evals").add(result.gainEvaluations);
  if (result.lazyRecomputes != 0) {
    msc::obs::counter(p + ".recomputes").add(result.lazyRecomputes);
  }
}

}  // namespace

GreedyResult greedyMaximize(IncrementalEvaluator& eval,
                            const CandidateSet& candidates,
                            const SolveOptions& options) {
  checkBudget(options.k);
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
  publishPass("greedy", result);
  return result;
}

GreedyResult lazyGreedyMaximize(IncrementalEvaluator& eval,
                                const CandidateSet& candidates,
                                const SolveOptions& options) {
  checkBudget(options.k);
  const int threads = util::resolveThreadCount(options.threads);
  MSC_OBS_SPAN("greedy.lazy_pass");
  eval.reset();
  GreedyResult result;

  struct Entry {
    double gain;
    std::size_t idx;
    int round;  // round in which `gain` was computed
  };
  // Max-heap by gain; ties -> lowest candidate index (matches plain greedy).
  auto cmp = [](const Entry& a, const Entry& b) {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.idx > b.idx;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);
  util::CancelToken* const cancel = msc::obs::currentCancelToken();
  msc::obs::ProgressReporter* const progress = msc::obs::currentProgress();
  const char* const stage = msc::obs::currentProgressStage();
  // The initial fill computes every candidate's gain against the empty
  // placement in one scanGains call (sharded by candidate range), and the
  // heap is built from all of them at once (O(C) instead of C pushes).
  // cmp is a strict total order (candidate indices are distinct), so the
  // pop sequence does not depend on how the heap was built.
  {
    // The fill is the lazy pass's analogue of a full gain scan; charge it
    // to the same request phase.
    MSC_OBS_SPAN("greedy.lazy_fill", msc::obs::Phase::RoundScan);
    std::vector<double> initialGain(candidates.size());
    {
      // Fill results are discarded below when the token fired, so the pool
      // may skip remaining chunks once it does.
      const util::ScopedChunkCancel chunkCancel(cancel);
      eval.scanGains(candidates, initialGain, threads, {});
    }
    if (cancel != nullptr && cancel->cancelled()) {
      result.interrupted = cancel->reason();
    } else {
      std::vector<Entry> entries;
      entries.reserve(candidates.size());
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        entries.push_back({initialGain[c], c, 0});
      }
      heap = decltype(heap)(cmp, std::move(entries));
      result.gainEvaluations += candidates.size();
    }
  }

  for (int round = 0;
       result.interrupted == util::CancelReason::None && round < options.k &&
       !heap.empty();) {
    // Polled on every heap step — between gain evaluations, so an expired
    // deadline costs at most one more recompute, never a committed round.
    if (cancel != nullptr && cancel->cancelled()) {
      result.interrupted = cancel->reason();
      break;
    }
    Entry top = heap.top();
    heap.pop();
    if (top.round != round) {
      // Stale cached gain: recompute and reinsert.
      top.gain = eval.gainIfAdd(candidates[top.idx]);
      ++result.gainEvaluations;
      ++result.lazyRecomputes;
      top.round = round;
      heap.push(top);
      continue;
    }
    if (top.gain <= 0.0) break;
    eval.add(candidates[top.idx]);
    result.placement.push_back(candidates[top.idx]);
    result.trajectory.push_back(eval.currentValue());
    ++round;
    ++result.rounds;
    if (msc::obs::trace::enabled()) {
      msc::obs::trace::instant("greedy.lazy.round",
                               {{"round", round - 1},
                                {"edge_a", candidates[top.idx].a},
                                {"edge_b", candidates[top.idx].b},
                                {"gain", top.gain},
                                {"recomputes", result.lazyRecomputes},
                                {"value", eval.currentValue()}});
    }
    if (progress != nullptr) {
      msc::obs::ProgressSnapshot snap;
      snap.solver = "greedy.lazy";
      snap.stage = stage;
      snap.round = result.rounds;
      snap.totalRounds = options.k;
      snap.value = result.trajectory.back();
      snap.gainEvals = result.gainEvaluations;
      snap.extra("gain", top.gain);
      snap.extra("recomputes", static_cast<double>(result.lazyRecomputes));
      // Fraction of accepted rounds whose heap top was already fresh — the
      // lazy speedup actually realized so far.
      snap.extra("heap_reuse",
                 static_cast<double>(result.rounds) /
                     static_cast<double>(result.rounds +
                                         result.lazyRecomputes));
      progress->report(snap);
    }
  }
  result.value = eval.currentValue();
  publishPass("greedy.lazy", result);
  return result;
}

}  // namespace msc::core
