// Unified knobs every MSC solver entry point accepts.
//
// Before this struct each algorithm grew its own (candidates, int k, ...)
// signature and new capabilities (the thread knob, seeding) had to be
// threaded through every one of them by hand. SolveOptions is the single
// extension point: construct with designated initializers at call sites,
//     greedyMaximize(eval, candidates, {.k = 5, .threads = 8});
// and leave everything else defaulted. The legacy int-k signatures went
// through a [[deprecated]] forwarding-wrapper cycle and are gone.
#pragma once

#include <cstdint>

namespace msc::core {

struct SolveOptions {
  /// Placement budget |F| <= k. Solvers with a different constraint
  /// (budgetedGreedy's knapsack) document that they ignore it.
  int k = 0;

  /// Worker threads for the parallel execution layer; 0 = all hardware
  /// threads, 1 = fully sequential (never touches the global pool).
  /// Parallel runs are bit-identical to threads == 1 — see ALGORITHMS.md
  /// §10 for the determinism contract.
  int threads = 1;

  /// Seed for the randomized solvers (EA, AEA, random baseline); their
  /// config structs carry no seed of their own.
  std::uint64_t seed = 1;
};

}  // namespace msc::core
