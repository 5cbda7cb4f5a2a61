// Live solve introspection: streaming progress snapshots from solver round
// boundaries (docs/ALGORITHMS.md §18).
//
// A ProgressReporter is bound to a request through obs::RequestContext
// (setProgress); solvers fetch it with currentProgress() at their entry
// point — one thread-local load — and, when non-null, offer a
// ProgressSnapshot after every committed round. The reporter
//
//   * stamps each snapshot with a per-(solver,stage) EWMA of round duration
//     (→ ETA and rounds/second),
//   * rate-limits delivery to the sink by `everyMs` (the first snapshot and
//     `force`d ones always pass),
//   * mirrors snapshots into the trace timeline as counter tracks
//     ("progress.<solver>.value") and request-stamped instants, so a
//     solve's convergence curve shows up in Perfetto and the slow-request
//     flight recorder, and
//   * feeds the process-wide series behind `stats`/Prometheus
//     (progressMetrics()).
//
// Reporting happens ON the solver thread and reads only state the solver
// already computed for the round, so a bound reporter cannot perturb the
// solve; an unbound one costs a null check per round. The sink runs under
// the reporter mutex — keep it cheap (format a line, write it).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "obs/metrics.h"

namespace msc::obs {

/// One solver round-boundary observation. `solver`/`stage`/extra keys must
/// be string literals (they are forwarded to the trace arena untouched).
struct ProgressSnapshot {
  const char* solver = "";  // "greedy", "sandwich", "ea", ...
  const char* stage = "";   // sandwich pass ("mu"/"sigma"/"nu") or ""
  int round = 0;            // committed rounds so far (1-based after round 1)
  int totalRounds = -1;     // < 0 when unknown (budgeted has no fixed k)
  double value = 0.0;       // objective after this round
  std::uint64_t gainEvals = 0;

  // Filled in by ProgressReporter::report():
  double etaSeconds = -1.0;      // < 0 when unknown
  double roundsPerSecond = 0.0;  // 0 when unknown
  std::uint64_t seq = 0;         // 1-based emission sequence number

  /// Small fixed set of solver-specific metrics (picked edge, gain,
  /// archive size, MC half-widths, ...). Keys must be string literals.
  struct Extra {
    const char* key = "";
    double value = 0.0;
  };
  static constexpr int kMaxExtras = 6;
  Extra extras[kMaxExtras];
  int extraCount = 0;

  void extra(const char* key, double v) noexcept {
    if (extraCount < kMaxExtras) extras[extraCount++] = Extra{key, v};
  }
};

/// Thread-safe snapshot collector + rate limiter. One per request; shared
/// by every solver running under that request.
class ProgressReporter {
 public:
  using Sink = std::function<void(const ProgressSnapshot&)>;

  /// `everyMs` <= 0 delivers every snapshot (useful for tests and the CLI
  /// ticker); otherwise snapshots inside the window are counted but not
  /// delivered.
  explicit ProgressReporter(Sink sink, double everyMs = 0.0);

  /// Offer a snapshot from a round boundary. Fills etaSeconds /
  /// roundsPerSecond / seq, updates counters and trace tracks, and invokes
  /// the sink unless rate-limited. `force` bypasses the rate limit (used
  /// for terminal snapshots so the last state always reaches the sink).
  void report(ProgressSnapshot snap, bool force = false);

  /// Snapshots offered / delivered to the sink so far.
  std::uint64_t offered() const noexcept {
    return offered_.load(std::memory_order_relaxed);
  }
  std::uint64_t emitted() const noexcept {
    return emitted_.load(std::memory_order_relaxed);
  }
  double everyMs() const noexcept { return everyMs_; }

 private:
  struct StageState {
    const char* solver;
    const char* stage;
    const char* counterTrack;  // interned "progress.<solver>[.stage].value"
    int lastRound;
    std::int64_t lastNs;
    double ewmaRoundNs;
  };
  StageState& stateFor(const char* solver, const char* stage);

  std::mutex mu_;
  Sink sink_;
  double everyMs_;
  std::int64_t lastEmitNs_ = 0;
  bool emittedAny_ = false;
  std::vector<StageState> stages_;
  std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> emitted_{0};
};

/// The reporter bound to the calling thread's request context, or nullptr.
ProgressReporter* currentProgress() noexcept;

/// Labels progress snapshots offered from the current thread for a scope —
/// the sandwich solver wraps each bound pass ("mu"/"sigma"/"nu") so the
/// greedy runs inside report under the pass name. Nests; restores on exit.
class ScopedProgressStage {
 public:
  explicit ScopedProgressStage(const char* stage) noexcept;
  ~ScopedProgressStage();
  ScopedProgressStage(const ScopedProgressStage&) = delete;
  ScopedProgressStage& operator=(const ScopedProgressStage&) = delete;

 private:
  const char* prev_;
};

/// Current thread's stage label ("" outside any ScopedProgressStage).
const char* currentProgressStage() noexcept;

/// Process-wide progress series in the global registry, behind the `stats`
/// progress fields and the msc_progress_* / msc_solver_rounds_per_second
/// Prometheus series. The first call registers them at zero.
struct ProgressMetrics {
  Counter& snapshots;      // "progress.snapshots": offered to reporters
  Counter& events;         // "progress.events": delivered to sinks
  Gauge& roundsPerSecond;  // "solver.rounds_per_second": latest non-zero
};
const ProgressMetrics& progressMetrics();

}  // namespace msc::obs
