#include "core/random_baseline.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"

namespace msc::core {

RandomBaselineResult randomBaseline(const SetFunction& objective,
                                    const CandidateSet& candidates,
                                    const SolveOptions& options,
                                    const RandomBaselineConfig& config) {
  const int k = options.k;
  if (k < 0) throw std::invalid_argument("randomBaseline: negative budget");
  if (config.repeats < 1) {
    throw std::invalid_argument("randomBaseline: repeats must be >= 1");
  }
  const auto pick = static_cast<std::size_t>(
      std::min<std::size_t>(static_cast<std::size_t>(k), candidates.size()));

  util::Rng rng(options.seed);
  RandomBaselineResult result;
  double sum = 0.0;
  bool first = true;
  for (int rep = 0; rep < config.repeats; ++rep) {
    ShortcutList placement;
    placement.reserve(pick);
    for (const std::size_t idx :
         rng.sampleWithoutReplacement(candidates.size(), pick)) {
      placement.push_back(candidates[idx]);
    }
    const double value = objective.value(placement);
    sum += value;
    if (first || value > result.value) {
      result.value = value;
      result.placement = std::move(placement);
      first = false;
    }
  }
  result.meanValue = sum / static_cast<double>(config.repeats);
  return result;
}

}  // namespace msc::core
