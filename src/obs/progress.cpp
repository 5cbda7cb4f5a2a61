#include "obs/progress.h"

#include <cstring>
#include <string>

#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace msc::obs {

namespace {

thread_local const char* tlsStage = "";

}  // namespace

ProgressReporter::ProgressReporter(Sink sink, double everyMs)
    : sink_(std::move(sink)), everyMs_(everyMs) {}

ProgressReporter::StageState& ProgressReporter::stateFor(const char* solver,
                                                         const char* stage) {
  for (StageState& st : stages_) {
    if (std::strcmp(st.solver, solver) == 0 &&
        std::strcmp(st.stage, stage) == 0) {
      return st;
    }
  }
  // New (solver, stage) pair: intern its counter-track name once. The
  // combinations per request are few (solver x at most 3 sandwich stages),
  // so the arena mutex is touched a handful of times per solve.
  std::string track = "progress.";
  track += solver;
  if (stage[0] != '\0') {
    track += '.';
    track += stage;
  }
  track += ".value";
  stages_.push_back(StageState{solver, stage, trace::intern(track),
                               /*lastRound=*/0, /*lastNs=*/0,
                               /*ewmaRoundNs=*/0.0});
  return stages_.back();
}

void ProgressReporter::report(ProgressSnapshot snap, bool force) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t now = trace::nowNs();
  const ProgressMetrics& metrics = progressMetrics();

  StageState& st = stateFor(snap.solver, snap.stage);
  if (st.lastNs != 0 && snap.round > st.lastRound) {
    const double perRound = static_cast<double>(now - st.lastNs) /
                            static_cast<double>(snap.round - st.lastRound);
    // EWMA over per-round wall time; alpha 0.3 tracks drift (later greedy
    // rounds are cheaper than early ones) without jitter dominating.
    st.ewmaRoundNs =
        st.ewmaRoundNs <= 0.0 ? perRound
                              : 0.3 * perRound + 0.7 * st.ewmaRoundNs;
  }
  if (snap.round != st.lastRound) {
    st.lastRound = snap.round;
    st.lastNs = now;
  } else if (st.lastNs == 0) {
    st.lastNs = now;
  }

  if (st.ewmaRoundNs > 0.0) {
    snap.roundsPerSecond = 1e9 / st.ewmaRoundNs;
    if (snap.totalRounds >= 0 && snap.totalRounds >= snap.round) {
      snap.etaSeconds =
          (snap.totalRounds - snap.round) * st.ewmaRoundNs * 1e-9;
    }
    metrics.roundsPerSecond.set(snap.roundsPerSecond);
  }

  offered_.fetch_add(1, std::memory_order_relaxed);
  metrics.snapshots.add(1);

  // Trace mirror: a counter track per (solver, stage) draws the convergence
  // curve in the Perfetto timeline, and a request-stamped instant lands the
  // snapshot in the slow-request flight recorder.
  if (trace::enabled()) {
    trace::counter(st.counterTrack, snap.value);
    trace::instant("progress.snapshot",
                   {{"solver", snap.solver},
                    {"stage", snap.stage},
                    {"round", snap.round},
                    {"value", snap.value},
                    {"gain_evals", static_cast<double>(snap.gainEvals)},
                    {"eta_seconds", snap.etaSeconds}});
  }

  const bool limited =
      emittedAny_ && everyMs_ > 0.0 &&
      static_cast<double>(now - lastEmitNs_) < everyMs_ * 1e6;
  if ((limited && !force) || !sink_) return;

  snap.seq = emitted_.fetch_add(1, std::memory_order_relaxed) + 1;
  metrics.events.add(1);
  lastEmitNs_ = now;
  emittedAny_ = true;
  sink_(snap);
}

ProgressReporter* currentProgress() noexcept {
  RequestContext* ctx = currentRequest();
  return ctx != nullptr ? ctx->progress() : nullptr;
}

ScopedProgressStage::ScopedProgressStage(const char* stage) noexcept
    : prev_(tlsStage) {
  tlsStage = stage;
}

ScopedProgressStage::~ScopedProgressStage() { tlsStage = prev_; }

const char* currentProgressStage() noexcept { return tlsStage; }

const ProgressMetrics& progressMetrics() {
  static const ProgressMetrics metrics{
      counter("progress.snapshots", {},
              "solver round-boundary snapshots offered to progress reporters"),
      counter("progress.events", {}, "progress events delivered to clients"),
      gauge("solver.rounds_per_second", {},
            "most recent per-round rate observed by any progress reporter")};
  return metrics;
}

}  // namespace msc::obs
