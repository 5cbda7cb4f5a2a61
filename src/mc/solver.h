// Placement solvers for the sampled multi-path objective σ̂.
//
// mc::greedy is plain greedy on the maintained-count estimator; because σ̂
// plateaus (a shortcut can raise a pair's reliability without crossing the
// 1 − p_t threshold), mc::sandwich additionally runs greedy on the
// plateau-free total-reliability surrogate and scores the paper's
// shortest-path sandwich placement under σ̂, returning the best of the
// three — the MC analogue of the best-of-three sandwich strategy (§V-B).
//
// All contenders are evaluated against ONE WorldSet (common random
// numbers), so their σ̂ values are directly comparable: differences
// reflect the placements, not sampling noise. Solvers inherit the PR-2
// bit-identity contract: threads=N equals threads=1 for a fixed seed
// because gains are exact integer counts (or integer counts / W) and the
// parallel gain scan's merge is deterministic.
#pragma once

#include <string>
#include <vector>

#include "core/candidates.h"
#include "core/instance.h"
#include "core/options.h"
#include "mc/reliability.h"
#include "mc/world_sampler.h"
#include "util/cancel.h"

namespace msc::mc {

/// Monte-Carlo solver knobs on top of core::SolveOptions (which supplies
/// k, threads, and the sampling seed).
struct McOptions {
  /// Number of sampled worlds W. Estimator half-width ~ 1/sqrt(W).
  int worlds = 1024;
  /// Confidence multiplier for the reported half-widths (1.96 ≈ 95%).
  double z = 1.96;
};

struct McSolveResult {
  core::ShortcutList placement;
  /// σ̂: maintained pairs under `placement` on the sampled worlds.
  double sigmaHat = 0.0;
  int pairs = 0;
  int worlds = 0;
  /// Pairs whose maintained verdict lies within the confidence half-width
  /// of the threshold — how much of σ̂ could flip under resampling.
  int uncertainPairs = 0;
  /// Winning contender: "mc_greedy", "mc_soft", or "surrogate"
  /// (mc::greedy always reports "mc_greedy").
  std::string winner;
  std::vector<PairReliability> estimates;

  // --- observability (always filled, independent of msc::obs state) ---
  std::size_t gainEvaluations = 0;
  int rounds = 0;
  /// Why the solve stopped early (None = ran to completion). The placement
  /// is the interrupted contender's committed prefix (mc::sandwich still
  /// scores whatever prefixes its contenders produced).
  util::CancelReason interrupted = util::CancelReason::None;
};

/// Greedy σ̂ maximization over `candidates` against one shared WorldSet of
/// mcOptions.worlds worlds seeded with options.seed. Stops early on a σ̂
/// plateau (no candidate crosses a threshold).
McSolveResult greedy(const core::Instance& instance,
                     const core::CandidateSet& candidates,
                     const core::SolveOptions& options,
                     const McOptions& mcOptions = {});

/// Best-of-three under σ̂ on shared worlds: greedy on σ̂, greedy on the
/// plateau-free Σ R̂ surrogate, and the paper's sandwich placement
/// (core::sandwichApproximation). Ties break toward the earlier
/// contender in that order, deterministically.
McSolveResult sandwich(const core::Instance& instance,
                       const core::CandidateSet& candidates,
                       const core::SolveOptions& options,
                       const McOptions& mcOptions = {});

}  // namespace msc::mc
