#include "core/set_function.h"

#include <algorithm>
#include <stdexcept>

#include "core/candidates.h"
#include "core/gain_scan.h"
#include "util/parallel.h"

namespace msc::core {

void detail::checkScanSize(const CandidateSet& candidates,
                           std::span<const double> gains,
                           std::span<const std::uint8_t> skip) {
  if (gains.size() != candidates.size() ||
      (!skip.empty() && skip.size() != candidates.size())) {
    throw std::invalid_argument("scanGains: one gain (and flag) per candidate");
  }
}

void detail::forEachCandidateRange(
    std::size_t count, int threads, std::size_t chunksPerThread,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  const int resolved = util::resolveThreadCount(threads);
  if (resolved <= 1 || count < 2) {
    fn(0, count);
    return;
  }
  const std::size_t shards = static_cast<std::size_t>(resolved) *
                             std::max<std::size_t>(1, chunksPerThread);
  const std::size_t grain =
      std::max<std::size_t>(1, (count + shards - 1) / shards);
  util::parallelForThreads(resolved, 0, count, grain, fn);
}

void IncrementalEvaluator::scanGains(const CandidateSet& candidates,
                                     std::span<double> gains, int threads,
                                     std::span<const std::uint8_t> skip) {
  detail::checkScanSize(candidates, gains, skip);
  // ~4 chunks per thread: coarse enough that the pool's per-chunk
  // bookkeeping is noise, fine enough to absorb gain-cost imbalance.
  detail::forEachCandidateRange(candidates.size(), threads, 4,
                                [&](std::size_t begin, std::size_t end) {
                                  for (std::size_t c = begin; c < end; ++c) {
                                    if (!skip.empty() && skip[c] != 0) continue;
                                    gains[c] = gainIfAdd(candidates[c]);
                                  }
                                });
}

GainPick IncrementalEvaluator::argmaxGain(const CandidateSet& candidates,
                                          int threads,
                                          std::span<const std::uint8_t> skip,
                                          std::vector<double>& scratch) {
  scratch.resize(candidates.size());
  scanGains(candidates, scratch, threads, skip);
  const detail::ScanBest best = detail::foldGains(
      scratch, skip, /*requirePositiveGain=*/true,
      [](double gain, std::size_t) { return gain; });
  return {best.index, best.gain, best.evaluations};
}

}  // namespace msc::core
