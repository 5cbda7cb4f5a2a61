// Internal: one deterministic candidate-selection scan, and the helpers
// the scanGains implementations share.
//
// Every per-round selection loop in the library has the same shape — score
// every candidate's marginal gain, keep the first candidate attaining the
// strict running maximum of some score. (Plain greedy asks the evaluator
// for that pick directly, IncrementalEvaluator::argmaxGain, whose default
// is this scan with the gain as score.) gainScan gets all the gains from
// one IncrementalEvaluator::scanGains call (sharded by candidate range,
// each gain bit-identical to gainIfAdd) and then folds over them in index
// order, so the pick is the same for any thread count: no floating-point
// reassociation happens, only comparisons are folded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/candidates.h"
#include "core/set_function.h"
#include "obs/context.h"
#include "util/cancel.h"

namespace msc::core::detail {

/// The scanGains size contract: throws std::invalid_argument unless
/// `gains` holds one entry per candidate and `skip` is empty or does too.
void checkScanSize(const CandidateSet& candidates,
                   std::span<const double> gains,
                   std::span<const std::uint8_t> skip);

/// Runs fn(begin, end) over [0, count) cut into contiguous candidate
/// ranges, about `chunksPerThread` per worker of `threads`: inline as one
/// range at one thread, over the global pool otherwise. The layout is pure
/// in (count, threads, chunksPerThread). scanGains implementations use it
/// so that threads split work by candidate range and every gain is
/// computed by one thread with the serial expression.
void forEachCandidateRange(
    std::size_t count, int threads, std::size_t chunksPerThread,
    const std::function<void(std::size_t, std::size_t)>& fn);

struct ScanBest {
  double score = 0.0;  // selection score of the best candidate so far
  double gain = 0.0;   // raw marginal gain of that candidate
  long index = -1;     // candidate index, -1 when nothing was eligible
  std::size_t evaluations = 0;  // unskipped candidates the fold scored
};

/// The fold of one selection scan: over `gains` in index order, skipping
/// the candidates flagged in `skip` (empty = none), keep the first
/// candidate attaining the strict running maximum of score(gain, i).
/// When requirePositiveGain, candidates with gain <= 0 are ineligible
/// (plain greedy's stop condition); otherwise the first unskipped
/// candidate is always a valid fallback (AEA's "always swap something"
/// rule).
template <typename ScoreFn>
ScanBest foldGains(std::span<const double> gains,
                   std::span<const std::uint8_t> skip,
                   bool requirePositiveGain, ScoreFn score) {
  ScanBest best;
  for (std::size_t c = 0; c < gains.size(); ++c) {
    if (!skip.empty() && skip[c] != 0) continue;
    ++best.evaluations;
    const double gain = gains[c];
    if (requirePositiveGain && gain <= 0.0) continue;
    const double s = score(gain, c);
    if (best.index < 0 || s > best.score) {
      best.score = s;
      best.gain = gain;
      best.index = static_cast<long>(c);
    }
  }
  return best;
}

/// One selection scan over `candidates` with `threads` workers (resolved via
/// util::resolveThreadCount): one scanGains call, then foldGains.
/// skip(i) -> bool excludes candidates from the scan and the fold (each is
/// asked once); score(gain, i) -> double ranks the rest. When the
/// request's cancel token fires during the scan, some gains may be unset,
/// so the result is empty (index -1, no evaluations).
template <typename SkipFn, typename ScoreFn>
ScanBest gainScan(IncrementalEvaluator& eval, const CandidateSet& candidates,
                  int threads, bool requirePositiveGain, SkipFn skip,
                  ScoreFn score) {
  std::vector<std::uint8_t> skipped(candidates.size());
  for (std::size_t c = 0; c < skipped.size(); ++c) skipped[c] = skip(c);
  std::vector<double> gains(candidates.size());
  util::CancelToken* const cancel = obs::currentCancelToken();
  {
    // The caller re-checks the token after the scan and drops the round,
    // so the pool may skip the remaining chunks once it fires. This is the
    // "between thread-pool chunks" check of the §18 cancellation contract.
    const util::ScopedChunkCancel chunkCancel(cancel);
    eval.scanGains(candidates, gains, threads, skipped);
  }
  if (cancel != nullptr && cancel->cancelled()) return {};
  return foldGains(gains, skipped, requirePositiveGain, score);
}

}  // namespace msc::core::detail
