// Random-selection baseline (paper §VII-C).
//
// The paper's comparison baseline: repeat "place k uniformly random
// shortcut edges" `repeats` times (500 in the paper) and keep the placement
// with the best objective value.
#pragma once

#include "core/candidates.h"
#include "core/options.h"
#include "core/set_function.h"

namespace msc::core {

struct RandomBaselineConfig {
  int repeats = 500;
};

struct RandomBaselineResult {
  ShortcutList placement;
  double value = 0.0;
  /// Mean value over all repeats (diagnostic: how much "best of" helps).
  double meanValue = 0.0;
};

/// options.k placements per repeat (fewer when the universe is smaller)
/// and options.seed drives the draws; the repeats run sequentially, so
/// options.threads only reaches a parallel-aware `objective`.
RandomBaselineResult randomBaseline(const SetFunction& objective,
                                    const CandidateSet& candidates,
                                    const SolveOptions& options,
                                    const RandomBaselineConfig& config = {});

}  // namespace msc::core
