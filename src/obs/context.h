// Request-scoped observability: attribute work to the request that caused
// it (docs/ALGORITHMS.md §14).
//
// The aggregate registry (obs/metrics.h) and the trace recorder
// (obs/trace.h) are process-global: they answer "what has this process been
// doing", never "which request burned the time". A RequestContext closes
// that gap. The serve engine creates one per request, binds it to the
// executing thread with ScopedRequestBind, and every layer below — the
// thread pool, the oracle's APSP build, the greedy round scans —
// charges its work to whatever context is bound:
//
//   * per-phase wall time (queue_wait / apsp / round_scan / other),
//   * CPU time summed across every participating thread
//     (CLOCK_THREAD_CPUTIME_ID deltas, pool workers included),
//   * gain evaluations and the APSP cache outcome.
//
// Propagation rules:
//   * The binding is a plain thread-local pointer; the context object
//     outlives the request (it lives on the engine's stack frame), so no
//     refcounting is needed.
//   * util::ThreadPool captures the submitter's context at parallelFor
//     submission and binds it around each worker's chunk run, so pooled
//     work is attributed to the request that submitted it.
//   * A thread spawned outside the pool must capture currentRequest()
//     before spawning and bind it itself.
//   * Attribution is additive-only through relaxed atomics: any thread may
//     charge a bound context concurrently.
//
// Phases are charged by obs::ScopedSpan (obs/metrics.h): a span that names
// a phase adds its one clock reading to the context bound when it opened.
//
// Determinism contract: none of this may change what the solvers compute.
// Attribution happens strictly outside the chunk callbacks' data path, a
// span reads the clock only when one of its consumers is on, and a solve
// under a bound context is bit-identical to an unbound one (enforced by
// tests/test_serve.cpp and tests/test_context.cpp).
//
// Flight recorder: requests that breach MSC_SLOWREQ_MS (or carry
// `"profile": true`) get their trace events — every event is stamped with
// the active request's trace id, see trace.h — extracted from the ring
// buffers and written as a standalone Perfetto-loadable
// `<MSC_SLOWREQ_DIR>/slowreq_<id>.trace.json`, with a synthesized
// "request.phases" lane visualizing the per-phase wall-time split.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace msc::util {
class CancelToken;
}  // namespace msc::util

namespace msc::obs {

class ProgressReporter;

/// Wall-time phases a request's execution decomposes into. The serve layer
/// reports one duration per phase in the response `usage` block; they sum
/// to queue wait + execution wall time (Other absorbs the unattributed
/// remainder).
enum class Phase : int {
  QueueWait = 0,  // admission-queue time before execution started
  Apsp,           // distance build: all-pairs rows or the landmark sweep
  RoundScan,      // greedy/AEA candidate gain scans
  Other,          // execution time not covered by a finer phase
};

inline constexpr int kPhaseCount = 4;

/// Wire/JSON name of a phase ("queue_wait", "apsp", ...).
const char* phaseName(Phase phase);

/// Per-request accounting record. Create one per request, bind with
/// ScopedRequestBind, read the totals after the request finished. All
/// mutation is relaxed-atomic and may come from any thread.
class RequestContext {
 public:
  /// Distance-oracle work attributed to this request (the serve layer
  /// renders it as the response's `usage.oracle` block). The oracle layer
  /// charges the bound context on every query; all fields are additive
  /// relaxed atomics. The ALT settled-ratio keeps a tiny fixed linear
  /// histogram over [0, 1] so per-request quantiles cost 16 words, not an
  /// allocation per query.
  struct OracleUsage {
    static constexpr int kAltBuckets = 16;

    std::atomic<std::uint64_t> pointQueries{0};
    std::atomic<std::uint64_t> rowQueries{0};
    std::atomic<std::uint64_t> rowBuilds{0};
    std::atomic<std::uint64_t> rowHits{0};
    std::atomic<std::uint64_t> rowsEvicted{0};
    std::atomic<std::uint64_t> altQueries{0};
    std::atomic<std::uint64_t> rowsEvolved{0};   // ShortcutRowStore updates
    std::atomic<std::uint64_t> rowsReplayed{0};  // late-terminal replays
    std::atomic<std::int64_t> rowBuildNs{0};
    std::atomic<std::uint32_t> altSettled[kAltBuckets] = {};
    std::atomic<std::uint64_t> altSettledCount{0};
    std::atomic<std::uint64_t> altSettledMaxPpm{0};  // max ratio, parts/1e6

    /// Records one A* settled-nodes/n sample (clamped to [0, 1]).
    void recordAltSettledRatio(double ratio) noexcept;
    /// Quantile of the recorded settled ratios from the bucket histogram
    /// (upper bucket bounds, so a conservative estimate); 0 when empty.
    double altSettledQuantile(double q) const noexcept;
    double altSettledMax() const noexcept;
    /// True when any oracle work was charged (gates the usage block).
    bool any() const noexcept;
  };

  /// `id` is the client-visible request id (already JSON-rendered, e.g.
  /// `7` or `"abc"`); used to name flight-record files. `profile` marks a
  /// request that asked for a trace dump regardless of latency.
  explicit RequestContext(std::string id, bool profile = false);

  const std::string& id() const noexcept { return id_; }
  bool profile() const noexcept { return profile_; }

  /// Process-unique nonzero id stamped into trace events recorded while
  /// this context is bound (trace.h Event::req).
  std::uint64_t traceId() const noexcept { return traceId_; }

  /// Optional deadline, seconds from request start; 0 = none. The serve
  /// engine enforces it by arming the request's util::CancelToken with the
  /// remaining budget (deadline minus queue wait) — solvers observe the
  /// token at round boundaries and return an anytime result with status
  /// "deadline_exceeded". Reported back in the `usage` block.
  void setDeadlineSeconds(double seconds) noexcept { deadline_ = seconds; }
  double deadlineSeconds() const noexcept { return deadline_; }

  /// Cooperative-cancellation token for this request (nullptr = not
  /// cancellable). Set once before the context is bound/shared; solvers
  /// read it through obs::currentCancelToken() at round boundaries.
  void setCancelToken(util::CancelToken* token) noexcept { cancel_ = token; }
  util::CancelToken* cancelToken() const noexcept { return cancel_; }

  /// Progress reporter for this request (nullptr = progress not requested).
  /// Set once before the context is bound/shared; solvers read it through
  /// obs::currentProgress() and offer snapshots at round boundaries.
  void setProgress(ProgressReporter* progress) noexcept {
    progress_ = progress;
  }
  ProgressReporter* progress() const noexcept { return progress_; }

  void addPhaseNs(Phase phase, std::int64_t ns) noexcept;
  std::int64_t phaseNs(Phase phase) const noexcept;
  double phaseSeconds(Phase phase) const noexcept;

  void addCpuNs(std::int64_t ns) noexcept;
  double cpuSeconds() const noexcept;

  void addGainEvals(std::uint64_t n) noexcept;
  std::uint64_t gainEvals() const noexcept;

  /// APSP cache outcome for this request ("" until noted).
  void noteApspCache(bool hit) noexcept { apspNote_ = hit ? 1 : 2; }
  const char* apspCache() const noexcept {
    return apspNote_ == 1 ? "hit" : apspNote_ == 2 ? "miss" : "";
  }

  /// Sets Other to `execWallSeconds` minus the finer exec phases (clamped
  /// at 0), so queue_wait + apsp + round_scan + other == queue wait + exec
  /// wall. Call once, after execution finished.
  void finalize(double execWallSeconds) noexcept;

  /// Trace-clock timestamp (trace::nowNs) of context creation; anchors the
  /// synthesized phase lane in flight-record dumps.
  std::int64_t startTraceNs() const noexcept { return startTraceNs_; }

  /// Oracle attribution for this request (charged by graph/distance_oracle
  /// and graph/shortcut_distance whenever a context is bound).
  OracleUsage& oracle() noexcept { return oracle_; }
  const OracleUsage& oracle() const noexcept { return oracle_; }

 private:
  std::string id_;
  bool profile_ = false;
  double deadline_ = 0.0;
  util::CancelToken* cancel_ = nullptr;
  ProgressReporter* progress_ = nullptr;
  std::uint64_t traceId_ = 0;
  std::int64_t startTraceNs_ = 0;
  std::atomic<std::int64_t> phaseNs_[kPhaseCount];
  std::atomic<std::int64_t> cpuNs_{0};
  std::atomic<std::uint64_t> gainEvals_{0};
  std::atomic<int> apspNote_{0};
  OracleUsage oracle_;
};

/// The context bound to the calling thread, or nullptr.
RequestContext* currentRequest() noexcept;

/// The cancel token of the bound context, or nullptr when no context is
/// bound or it carries no token. One thread-local load — cheap enough for
/// solvers to call once per entry and poll per round.
util::CancelToken* currentCancelToken() noexcept;

/// True when a token is bound and has fired; the round-boundary poll.
bool cancelRequested() noexcept;

/// Binds `ctx` to the calling thread for the scope (nullptr = no-op) and
/// stamps trace events with its trace id; restores the previous binding on
/// destruction. Cheap enough for per-chunk use in the thread pool.
class ScopedRequestBind {
 public:
  explicit ScopedRequestBind(RequestContext* ctx) noexcept;
  ~ScopedRequestBind();
  ScopedRequestBind(const ScopedRequestBind&) = delete;
  ScopedRequestBind& operator=(const ScopedRequestBind&) = delete;

 private:
  RequestContext* prev_ = nullptr;
  std::uint64_t prevTraceId_ = 0;
  bool bound_ = false;
};

/// Charges the scope's thread CPU time (CLOCK_THREAD_CPUTIME_ID delta) to
/// the context bound at construction; no-op when unbound.
class ScopedCpuAttribution {
 public:
  ScopedCpuAttribution() noexcept;
  ~ScopedCpuAttribution();
  ScopedCpuAttribution(const ScopedCpuAttribution&) = delete;
  ScopedCpuAttribution& operator=(const ScopedCpuAttribution&) = delete;

 private:
  RequestContext* ctx_ = nullptr;
  std::int64_t startNs_ = 0;
};

/// Calling thread's consumed CPU time (CLOCK_THREAD_CPUTIME_ID), ns.
std::int64_t threadCpuNs() noexcept;

// ---- slow-request flight recorder ---------------------------------------

/// Latency threshold in ms above which the serve layer dumps a request's
/// trace events; 0 disables tail sampling (profile:true still dumps).
/// Seeded from MSC_SLOWREQ_MS (default 0).
double slowRequestThresholdMs() noexcept;
void setSlowRequestThresholdMs(double ms) noexcept;

/// Directory slowreq_<id>.trace.json files land in (created best-effort,
/// one level). Seeded from MSC_SLOWREQ_DIR (default "out").
std::string slowRequestDir();
void setSlowRequestDir(const std::string& dir);

/// Extracts every trace event stamped with ctx's trace id from the ring
/// buffers, appends a synthesized "request.phases" lane (one slice per
/// phase, durations from the context; placement within the request window
/// is schematic since phases interleave across threads), and writes the
/// result as Chrome trace-event JSON to
/// `<slowRequestDir()>/slowreq_<sanitized id>.trace.json`. Returns the
/// path. Throws std::runtime_error when the file cannot be written. Useful
/// even with tracing disabled: the dump then contains just the phase lane.
std::string dumpFlightRecord(const RequestContext& ctx);

}  // namespace msc::obs
