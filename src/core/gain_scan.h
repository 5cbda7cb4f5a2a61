// Internal: one deterministic candidate-selection scan, serial or sharded.
//
// Every per-round selection loop in the library has the same shape — walk
// the candidate set, query a read-only gainIfAdd, keep the first candidate
// attaining the strict running maximum of some score. That left fold is
// invariant under chunking as long as per-chunk winners are merged in chunk
// order with the same first-wins rule, which is exactly what gainScan does:
// the parallel result is bit-identical to the serial one for any thread
// count and any chunk size (no floating-point reassociation happens — each
// candidate's gain and score are computed by the same expressions either
// way, only comparisons are folded).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/candidates.h"
#include "core/set_function.h"
#include "obs/context.h"
#include "util/cancel.h"
#include "util/parallel.h"

namespace msc::core::detail {

struct ScanBest {
  double score = 0.0;  // selection score of the best candidate so far
  double gain = 0.0;   // raw marginal gain of that candidate
  long index = -1;     // candidate index, -1 when nothing was eligible
  std::size_t evaluations = 0;  // gainIfAdd calls made by the scan
};

/// Folds a per-chunk winner into the running one: ties and equal scores go
/// to the earlier chunk (= lower candidate index), matching a serial scan.
inline void mergeScan(ScanBest& acc, const ScanBest& chunk) {
  acc.evaluations += chunk.evaluations;
  if (chunk.index < 0) return;
  if (acc.index < 0 || chunk.score > acc.score) {
    acc.score = chunk.score;
    acc.gain = chunk.gain;
    acc.index = chunk.index;
  }
}

/// One selection scan over `candidates` with `threads` workers (resolved via
/// util::resolveThreadCount). skip(i) -> bool excludes candidates without
/// evaluating them; score(gain, i) -> double ranks the rest. When
/// requirePositiveGain, candidates with gain <= 0 are ineligible (plain
/// greedy's stop condition); otherwise the first unskipped candidate is
/// always a valid fallback (AEA's "always swap something" rule). The
/// evaluator gets its prepareScan hint first; the probes themselves are
/// read-only.
template <typename SkipFn, typename ScoreFn>
ScanBest gainScan(IncrementalEvaluator& eval, const CandidateSet& candidates,
                  int threads, bool requirePositiveGain, SkipFn skip,
                  ScoreFn score) {
  eval.prepareScan(candidates);
  const std::size_t count = candidates.size();
  const auto scanRange = [&](std::size_t rangeBegin, std::size_t rangeEnd) {
    ScanBest local;
    for (std::size_t c = rangeBegin; c < rangeEnd; ++c) {
      if (skip(c)) continue;
      const double gain = eval.gainIfAdd(candidates[c]);
      ++local.evaluations;
      if (requirePositiveGain && gain <= 0.0) continue;
      const double s = score(gain, c);
      if (local.index < 0 || s > local.score) {
        local.score = s;
        local.gain = gain;
        local.index = static_cast<long>(c);
      }
    }
    return local;
  };

  const int resolved = util::resolveThreadCount(threads);
  if (resolved <= 1 || count < 2) return scanRange(0, count);

  // ~4 chunks per thread: coarse enough that the pool's per-chunk
  // bookkeeping is noise, fine enough to absorb gain-cost imbalance.
  const std::size_t shards = static_cast<std::size_t>(resolved) * 4;
  const std::size_t grain = std::max<std::size_t>(1, (count + shards - 1) / shards);
  const std::size_t chunkCount = (count + grain - 1) / grain;
  std::vector<ScanBest> perChunk(chunkCount);
  // A scan's per-chunk results are discarded wholesale by the solver when
  // its cancel token fired (it re-checks after the scan and drops the
  // round), so chunk-level skipping is safe here — a skipped chunk just
  // leaves its ScanBest empty. This is the "between thread-pool chunks"
  // check of the §18 cancellation contract.
  const util::ScopedChunkCancel chunkCancel(obs::currentCancelToken());
  util::parallelForThreads(resolved, 0, count, grain,
                           [&](std::size_t chunkBegin, std::size_t chunkEnd) {
                             perChunk[chunkBegin / grain] =
                                 scanRange(chunkBegin, chunkEnd);
                           });
  ScanBest best;
  for (const ScanBest& chunk : perChunk) mergeScan(best, chunk);
  return best;
}

}  // namespace msc::core::detail
