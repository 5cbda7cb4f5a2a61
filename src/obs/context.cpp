#include "obs/context.h"

#include <sys/stat.h>
#include <time.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"
#include "obs/trace_export.h"
#include "util/cancel.h"
#include "util/env.h"

namespace msc::obs {

namespace {

thread_local RequestContext* tlsRequest = nullptr;

std::atomic<std::uint64_t> gRequestSeq{0};

/// Flight-recorder knobs: env-seeded once, then mutable (tests, CLI flags).
/// The mutex only guards the directory string; the threshold is atomic.
struct RecorderConfig {
  std::atomic<double> thresholdMs;
  std::mutex mu;
  std::string dir;

  RecorderConfig()
      : thresholdMs(util::envDouble("MSC_SLOWREQ_MS", 0.0)) {
    const char* env = std::getenv("MSC_SLOWREQ_DIR");
    dir = (env != nullptr && env[0] != '\0') ? env : "out";
  }
};

RecorderConfig& recorderConfig() {
  static RecorderConfig* config = new RecorderConfig();  // leaked, like obs
  return *config;
}

/// File-name-safe rendering of a client request id. Request ids arrive
/// pre-rendered as JSON ("7", "\"abc\"", "null"), so strip string quotes
/// and replace anything outside [A-Za-z0-9_.-] — path separators included.
std::string sanitizeId(const std::string& id, std::uint64_t fallbackSeq) {
  std::string_view view = id;
  if (view.size() >= 2 && view.front() == '"' && view.back() == '"') {
    view = view.substr(1, view.size() - 2);
  }
  std::string out;
  out.reserve(view.size());
  for (const char c : view) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    out.push_back(ok ? c : '_');
    if (out.size() >= 80) break;  // ids are client-controlled; cap the name
  }
  if (out.empty() || view == "null") {
    out = "req" + std::to_string(fallbackSeq);
  }
  return out;
}

}  // namespace

bool RequestContext::OracleUsage::any() const noexcept {
  return pointQueries.load(std::memory_order_relaxed) != 0 ||
         rowQueries.load(std::memory_order_relaxed) != 0 ||
         rowBuilds.load(std::memory_order_relaxed) != 0 ||
         altQueries.load(std::memory_order_relaxed) != 0 ||
         rowsEvolved.load(std::memory_order_relaxed) != 0 ||
         rowsReplayed.load(std::memory_order_relaxed) != 0;
}

const char* phaseName(Phase phase) {
  switch (phase) {
    case Phase::QueueWait: return "queue_wait";
    case Phase::Apsp: return "apsp";
    case Phase::RoundScan: return "round_scan";
    case Phase::Other: return "other";
  }
  return "unknown";
}

RequestContext::RequestContext(std::string id, bool profile)
    : id_(std::move(id)),
      profile_(profile),
      traceId_(gRequestSeq.fetch_add(1, std::memory_order_relaxed) + 1),
      startTraceNs_(trace::nowNs()) {
  for (auto& ns : phaseNs_) ns.store(0, std::memory_order_relaxed);
}

void RequestContext::addPhaseNs(Phase phase, std::int64_t ns) noexcept {
  if (ns <= 0) return;
  phaseNs_[static_cast<int>(phase)].fetch_add(ns, std::memory_order_relaxed);
}

std::int64_t RequestContext::phaseNs(Phase phase) const noexcept {
  return phaseNs_[static_cast<int>(phase)].load(std::memory_order_relaxed);
}

double RequestContext::phaseSeconds(Phase phase) const noexcept {
  return static_cast<double>(phaseNs(phase)) * 1e-9;
}

void RequestContext::addCpuNs(std::int64_t ns) noexcept {
  if (ns <= 0) return;
  cpuNs_.fetch_add(ns, std::memory_order_relaxed);
}

double RequestContext::cpuSeconds() const noexcept {
  return static_cast<double>(cpuNs_.load(std::memory_order_relaxed)) * 1e-9;
}

void RequestContext::addGainEvals(std::uint64_t n) noexcept {
  if (n > 0) gainEvals_.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t RequestContext::gainEvals() const noexcept {
  return gainEvals_.load(std::memory_order_relaxed);
}

void RequestContext::finalize(double execWallSeconds) noexcept {
  // Phase attribution happens on whichever thread ran the work; by the
  // time finalize runs the request is done, so relaxed reads see totals.
  const auto execNs = static_cast<std::int64_t>(execWallSeconds * 1e9);
  const std::int64_t covered = phaseNs(Phase::Apsp) + phaseNs(Phase::RoundScan);
  const std::int64_t other = execNs - covered;
  phaseNs_[static_cast<int>(Phase::Other)].store(other > 0 ? other : 0,
                                                 std::memory_order_relaxed);
}

RequestContext* currentRequest() noexcept { return tlsRequest; }

util::CancelToken* currentCancelToken() noexcept {
  return tlsRequest != nullptr ? tlsRequest->cancelToken() : nullptr;
}

bool cancelRequested() noexcept {
  util::CancelToken* token = currentCancelToken();
  return token != nullptr && token->cancelled();
}

ScopedRequestBind::ScopedRequestBind(RequestContext* ctx) noexcept {
  if (ctx == nullptr) return;
  bound_ = true;
  prev_ = tlsRequest;
  prevTraceId_ = trace::currentRequestId();
  tlsRequest = ctx;
  trace::setCurrentRequestId(ctx->traceId());
}

ScopedRequestBind::~ScopedRequestBind() {
  if (!bound_) return;
  tlsRequest = prev_;
  trace::setCurrentRequestId(prevTraceId_);
}

ScopedCpuAttribution::ScopedCpuAttribution() noexcept : ctx_(tlsRequest) {
  if (ctx_ != nullptr) startNs_ = threadCpuNs();
}

ScopedCpuAttribution::~ScopedCpuAttribution() {
  if (ctx_ != nullptr) ctx_->addCpuNs(threadCpuNs() - startNs_);
}

std::int64_t threadCpuNs() noexcept {
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double slowRequestThresholdMs() noexcept {
  return recorderConfig().thresholdMs.load(std::memory_order_relaxed);
}

void setSlowRequestThresholdMs(double ms) noexcept {
  recorderConfig().thresholdMs.store(ms, std::memory_order_relaxed);
}

std::string slowRequestDir() {
  RecorderConfig& config = recorderConfig();
  const std::lock_guard<std::mutex> lock(config.mu);
  return config.dir;
}

void setSlowRequestDir(const std::string& dir) {
  RecorderConfig& config = recorderConfig();
  const std::lock_guard<std::mutex> lock(config.mu);
  config.dir = dir.empty() ? "out" : dir;
}

std::string dumpFlightRecord(const RequestContext& ctx) {
  const trace::Snapshot full = trace::snapshot();
  trace::Snapshot record;
  record.droppedTotal = full.droppedTotal;
  int maxTid = 0;
  for (const trace::Lane& lane : full.lanes) {
    if (lane.tid > maxTid) maxTid = lane.tid;
    trace::Lane filtered;
    filtered.tid = lane.tid;
    filtered.threadName = lane.threadName;
    filtered.dropped = lane.dropped;
    for (const trace::Event& e : lane.events) {
      if (e.req == ctx.traceId()) filtered.events.push_back(e);
    }
    if (!filtered.events.empty()) record.lanes.push_back(std::move(filtered));
  }

  // Synthesized phase lane: queue wait ends where execution starts; the
  // exec phases are laid out sequentially inside the exec window. Their
  // *durations* are exact; their placement is schematic (apsp/round_scan
  // work interleaves across worker threads in reality).
  trace::Lane phases;
  phases.tid = maxTid + 1;
  phases.threadName = "request.phases";
  const auto slice = [&phases](const char* name, std::int64_t fromNs,
                               std::int64_t durationNs) {
    if (durationNs <= 0) return;
    trace::Event b;
    b.kind = trace::EventKind::Begin;
    b.name = name;
    b.tsNs = fromNs;
    b.argCount = 1;
    b.args[0] = trace::Arg("seconds", static_cast<double>(durationNs) * 1e-9);
    phases.events.push_back(b);
    trace::Event e;
    e.kind = trace::EventKind::End;
    e.name = name;
    e.tsNs = fromNs + durationNs;
    phases.events.push_back(e);
  };
  const std::int64_t start = ctx.startTraceNs();
  slice("phase.queue_wait", start - ctx.phaseNs(Phase::QueueWait),
        ctx.phaseNs(Phase::QueueWait));
  std::int64_t t = start;
  slice("phase.apsp", t, ctx.phaseNs(Phase::Apsp));
  t += ctx.phaseNs(Phase::Apsp);
  slice("phase.round_scan", t, ctx.phaseNs(Phase::RoundScan));
  t += ctx.phaseNs(Phase::RoundScan);
  slice("phase.other", t, ctx.phaseNs(Phase::Other));
  // Oracle attribution rides on the same lane: total row-build wall time
  // charged to this request (duration exact, placement schematic like the
  // phases — row builds interleave with apsp/round_scan work).
  const std::int64_t oracleBuildNs =
      ctx.oracle().rowBuildNs.load(std::memory_order_relaxed);
  if (oracleBuildNs > 0) {
    trace::Event inst;
    inst.kind = trace::EventKind::Instant;
    inst.name = "oracle.row_build";
    inst.tsNs = start;
    inst.argCount = 2;
    inst.args[0] =
        trace::Arg("seconds", static_cast<double>(oracleBuildNs) * 1e-9);
    inst.args[1] = trace::Arg(
        "rows", static_cast<double>(
                    ctx.oracle().rowBuilds.load(std::memory_order_relaxed)));
    phases.events.push_back(inst);
  }
  record.lanes.push_back(std::move(phases));

  const std::string dir = slowRequestDir();
  ::mkdir(dir.c_str(), 0777);  // best-effort, one level; EEXIST is fine
  const std::string path =
      dir + "/slowreq_" + sanitizeId(ctx.id(), ctx.traceId()) + ".trace.json";
  trace::writeFile(path, record);
  return path;
}

}  // namespace msc::obs
