#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <netinet/in.h>

#include "core/aea.h"
#include "core/budgeted.h"
#include "core/ea.h"
#include "core/greedy.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "mc/solver.h"
#include "graph/graph_io.h"
#include "obs/context.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/prom_export.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/env.h"
#include "wireless/link_model.h"

namespace msc::serve {

namespace {

std::atomic<bool> g_shutdownFlag{false};

constexpr std::size_t kMaxLineBytes = 32u << 20;  // hostile-input cap
constexpr const char* kShuttingDown = "server is shutting down";

/// usage.oracle counters. Those with a series are also per-engine totals
/// (Engine::oracleTotals_, in this order), folded in as requests finish.
struct OracleCounter {
  const char* usage;
  std::atomic<std::uint64_t> obs::RequestContext::OracleUsage::*field;
  const char* series;
  const char* labels;
  const char* help;
};
using Usage = obs::RequestContext::OracleUsage;
constexpr OracleCounter kOracleCounters[] = {
    {"point_queries", &Usage::pointQueries, "serve.oracle.queries",
     "kind=\"point\"", "distance-oracle queries by kind"},
    {"row_queries", &Usage::rowQueries, "serve.oracle.queries",
     "kind=\"row\"", ""},
    {"row_builds", &Usage::rowBuilds, "serve.oracle.row_builds", "",
     "lazy Dijkstra row materializations"},
    {"row_hits", &Usage::rowHits, "serve.oracle.row_hits", "",
     "row queries served from cache"},
    {"rows_evicted", &Usage::rowsEvicted, "serve.oracle.row_evictions", "",
     "rows evicted under MSC_ORACLE_ROWS_MB"},
    {"alt_queries", &Usage::altQueries, "serve.oracle.alt_queries", "",
     "point queries answered by a search"},
    {"rows_evolved", &Usage::rowsEvolved, nullptr, nullptr, nullptr},
    {"rows_replayed", &Usage::rowsReplayed, nullptr, nullptr, nullptr},
};

/// The latency histograms: a few relaxed atomics per request. Every Engine
/// registers them on construction, so they show from the first scrape.
struct LatencyHistograms {
  obs::Histogram& request = obs::histogram("serve.request_seconds");
  obs::Histogram& queueWait = obs::histogram("serve.queue_wait_seconds");
  obs::Histogram& apsp = obs::histogram("serve.phase.apsp_seconds");
  obs::Histogram& roundScan = obs::histogram("serve.phase.round_scan_seconds");
  obs::Histogram& other = obs::histogram("serve.phase.other_seconds");
};

LatencyHistograms& latency() {
  static LatencyHistograms histograms;
  return histograms;
}

/// The "span.<span>" stat of each command's span and of span.serve.request,
/// looked up once.
struct SpanStats {
  obs::Stat& request = obs::stat("span.serve.request");
  std::array<obs::Stat*, kCommandCount> command = [] {
    std::array<obs::Stat*, kCommandCount> stats{};
    for (std::size_t i = 0; i < kCommandCount; ++i) {
      stats[i] = &obs::stat(std::string("span.") +
                            commandSpec(static_cast<Command>(i)).span);
    }
    return stats;
  }();
};

SpanStats& spanStats() {
  static SpanStats stats;
  return stats;
}

/// The "distance_mode" solve and eval replies report for a graph's
/// candidate rule (InstanceCache::putGraph).
const char* resolvedModeName(bool allPairs) {
  return msc::graph::distanceModeName(allPairs
                                          ? msc::graph::DistanceMode::Dense
                                          : msc::graph::DistanceMode::PairCentric);
}

/// Reads the file or inline "text" parameter a load_* request names.
std::string loadPayload(const Request& req, const char* what) {
  const json::Value* path = findParam(req, "path");
  const json::Value* text = findParam(req, "text");
  if ((path != nullptr) == (text != nullptr)) {
    throw ProtocolError(std::string(what) +
                        " needs exactly one of \"path\" or \"text\"");
  }
  if (text) {
    if (!text->isString()) throw ProtocolError("\"text\" must be a string");
    return text->asString();
  }
  if (!path->isString()) throw ProtocolError("\"path\" must be a string");
  std::ifstream in(path->asString());
  if (!in) {
    throw ProtocolError("cannot open file: " + path->asString());
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

double requestThreshold(const Request& req) {
  // "p_t" is the schema name; "pt" is accepted as the CLI-flag spelling.
  // Presence decides which one is read, so an out-of-range value is
  // rejected under the name the client sent, never replaced.
  const char* key = findParam(req, "p_t") != nullptr ? "p_t" : "pt";
  const double pt = getNumberParam(req, key, 0.14);
  if (!(pt >= 0.0) || pt >= 1.0) {
    throw ProtocolError(std::string("\"") + key + "\" must be in [0, 1)");
  }
  return msc::wireless::failureThresholdToDistance(pt);
}

/// One mid-request progress notification line (docs/ALGORITHMS.md §18).
/// Distinguishable from a response by "event":"progress" and the absence
/// of "status"; echoes the request id so pipelining clients can route it.
std::string renderProgressEvent(const json::Value& id,
                                const obs::ProgressSnapshot& snap) {
  json::Object o;
  o["schema"] = kSchemaVersion;
  o["event"] = "progress";
  o["id"] = id;
  o["seq"] = snap.seq;
  o["solver"] = snap.solver;
  if (*snap.stage != '\0') o["stage"] = snap.stage;
  o["round"] = snap.round;
  if (snap.totalRounds >= 0) o["total_rounds"] = snap.totalRounds;
  o["value"] = snap.value;
  o["gain_evals"] = snap.gainEvals;
  if (snap.etaSeconds >= 0.0) o["eta_seconds"] = snap.etaSeconds;
  if (snap.roundsPerSecond > 0.0) {
    o["rounds_per_second"] = snap.roundsPerSecond;
  }
  if (snap.extraCount > 0) {
    json::Object extras;
    for (int i = 0; i < snap.extraCount; ++i) {
      extras[snap.extras[i].key] = snap.extras[i].value;
    }
    o["extras"] = std::move(extras);
  }
  return json::dump(json::Value(std::move(o)));
}

}  // namespace

std::size_t defaultCacheBytes() {
  const std::int64_t mb = util::envInt("MSC_SERVE_CACHE_MB", 256);
  if (mb <= 0) return 0;  // unbounded
  return static_cast<std::size_t>(mb) << 20;
}

Engine::Engine(EngineConfig config)
    : config_(config),
      cache_(config.cacheBytes, config.oracleRowBytes),
      requests_(metrics_.counter("serve.requests")),
      errors_(metrics_.counter("serve.errors")),
      slowRequests_(metrics_.counter(
          "serve.slow_requests", {},
          "requests at or over MSC_SLOWREQ_MS, each with a flight record")),
      cancelledClient_(metrics_.counter(
          "serve.cancellations", "reason=\"client\"",
          "requests stopped early and answered with an anytime result, by "
          "reason")),
      cancelledDeadline_(
          metrics_.counter("serve.cancellations", "reason=\"deadline\"")),
      executing_(metrics_.gauge(
          "serve.requests_inflight", "phase=\"executing\"",
          "requests admitted but not yet answered, by phase")),
      start_(std::chrono::steady_clock::now()) {
  for (std::size_t i = 0; i < oracleTotals_.size(); ++i) {
    const OracleCounter& c = kOracleCounters[i];
    oracleTotals_[i] = &metrics_.counter(c.series, c.labels, c.help);
  }
  metrics_.gauge("serve.requests_inflight", "phase=\"queued\"");
  (void)obs::progressMetrics();  // present from the first scrape
  (void)latency();
}

/// Keyed by the JSON rendering of the request id: `cancel` fires every
/// token under its target, so duplicate client ids all stop. A request
/// without an id gets a token nothing can reach.
class Engine::CancelTicket {
 public:
  CancelTicket(Engine& engine, const json::Value& id) : engine_(engine) {
    if (id.isNull()) return;
    const std::lock_guard<std::mutex> lock(engine_.cancelMu_);
    entry_ = engine_.cancelTokens_.emplace(json::dump(id), &token_);
  }

  ~CancelTicket() {
    if (!entry_) return;
    const std::lock_guard<std::mutex> lock(engine_.cancelMu_);
    engine_.cancelTokens_.erase(*entry_);
  }

  CancelTicket(const CancelTicket&) = delete;
  CancelTicket& operator=(const CancelTicket&) = delete;

  util::CancelToken& token() noexcept { return token_; }

 private:
  Engine& engine_;
  util::CancelToken token_;
  std::optional<decltype(cancelTokens_)::iterator> entry_;
};

/// One request inside the engine (docs/ALGORITHMS.md §12). The constructor
/// opens its spans, counts it and binds its context and cancel token;
/// reply() or fail() renders the answer after the same finish(); the
/// destructor records the histograms, the oracle totals and the log line.
class Engine::Lifecycle {
 public:
  Lifecycle(Engine& engine, const Request& request, double queueWaitSeconds,
            util::CancelToken* cancel)
      : engine_(engine),
        request_(request),
        queueWait_(queueWaitSeconds),
        cmdSpan_(commandSpec(request.cmd).span,
                 *spanStats().command[static_cast<std::size_t>(request.cmd)]),
        // "profile" is validated in arm(), so a malformed value takes the
        // normal error reply.
        rctx_(json::dump(request.id), readProfile(request, profileError_)),
        token_(cancel != nullptr ? *cancel
                                 : ownTicket_.emplace(engine, request.id)
                                       .token()),
        bind_(&rctx_) {
    engine_.requests_.add(1);
    engine_.executing_.add(1);
    latency().queueWait.record(queueWaitSeconds);
    rctx_.addPhaseNs(obs::Phase::QueueWait,
                     static_cast<std::int64_t>(queueWaitSeconds * 1e9));
    // Solvers poll the token at round boundaries through the context.
    rctx_.setCancelToken(&token_);
  }

  Lifecycle(const Lifecycle&) = delete;
  Lifecycle& operator=(const Lifecycle&) = delete;

  ~Lifecycle() {
    const double wall = wallSince();
    latency().request.record(wall);
    // Oracle totals: every request's usage.oracle, so they never go down
    // when the cache drops or rebuilds an oracle.
    if (const Usage& ou = rctx_.oracle(); ou.any()) {
      for (std::size_t i = 0; i < engine_.oracleTotals_.size(); ++i) {
        engine_.oracleTotals_[i]->add(
            (ou.*kOracleCounters[i].field).load(std::memory_order_relaxed));
      }
    }
    // Per-phase latency (Prometheus per-phase p99s, so a slow phase shows
    // even when end-to-end latency is flat). Zero-duration phases are
    // skipped so cheap commands (health, stats) don't flood the
    // apsp/round_scan series.
    for (const auto& [phase, hist] :
         {std::pair{obs::Phase::Apsp, &latency().apsp},
          std::pair{obs::Phase::RoundScan, &latency().roundScan},
          std::pair{obs::Phase::Other, &latency().other}}) {
      if (rctx_.phaseNs(phase) > 0) hist->record(rctx_.phaseSeconds(phase));
    }
    if (obs::log::enabled(obs::log::Level::Info)) {
      std::vector<obs::log::Field> logFields{
          {"id", rctx_.id()},
          {"cmd", commandSpec(request_.cmd).name},
          {"status", status_},
          {"queue_wait_seconds", queueWait_},
          {"wall_seconds", wall},
          {"cpu_seconds", rctx_.cpuSeconds()},
          {"apsp_seconds", rctx_.phaseSeconds(obs::Phase::Apsp)},
          {"round_scan_seconds", rctx_.phaseSeconds(obs::Phase::RoundScan)},
          {"gain_evals", rctx_.gainEvals()},
      };
      if (*rctx_.apspCache() != '\0') {
        logFields.emplace_back("cache", rctx_.apspCache());
      }
      if (!error_.empty()) logFields.emplace_back("error", error_);
      if (!traceFile_.empty()) logFields.emplace_back("trace_file", traceFile_);
      obs::log::write(obs::log::Level::Info, "serve.request", logFields);
    }
    engine_.executing_.add(-1);
  }

  obs::RequestContext& context() noexcept { return rctx_; }

  /// Applies the per-request parameters: "profile" (parsed earlier),
  /// "deadline_seconds" and "progress". Throws ProtocolError.
  void arm(const Notify* notify) {
    if (!profileError_.empty()) throw ProtocolError(profileError_);
    // Deadline: total budget in seconds from admission. Queue wait already
    // spent part of it, so the token is armed with the remainder — a
    // request that waited past its deadline cancels at its first round
    // boundary and still returns a reply.
    const double deadlineSeconds =
        getNumberParam(request_, "deadline_seconds", 0.0);
    if (findParam(request_, "deadline_seconds") != nullptr) {
      if (!(deadlineSeconds > 0.0)) {
        throw ProtocolError("\"deadline_seconds\" must be > 0");
      }
      rctx_.setDeadlineSeconds(deadlineSeconds);
      token_.setDeadlineAfterSeconds(deadlineSeconds - queueWait_);
    }
    // Progress streaming: {"progress": {"every_ms": N}} emits rate-limited
    // {"event":"progress"} lines via `notify` while the solve runs. Without
    // a notify sink (direct Engine::handle callers) snapshots are still
    // counted for `usage`.
    const json::Value* prog = findParam(request_, "progress");
    if (prog == nullptr) return;
    if (!prog->isObject()) throw ProtocolError("\"progress\" must be an object");
    double everyMs = 100.0;
    const json::Object& progObj = prog->asObject();
    if (const auto it = progObj.find("every_ms"); it != progObj.end()) {
      if (!it->second.isNumber()) {
        throw ProtocolError("\"progress.every_ms\" must be a number");
      }
      everyMs = it->second.asNumber();
    }
    progress_.emplace(
        [notify, &id = request_.id](const obs::ProgressSnapshot& snap) {
          if (notify != nullptr && *notify) {
            (*notify)(renderProgressEvent(id, snap));
          }
        },
        everyMs);
    rctx_.setProgress(&*progress_);
  }

  /// The ok reply — or, when the token fired, the anytime reply: the
  /// fields already hold the best-so-far state (completed-round prefix),
  /// only the status and the usage annotation differ.
  std::string reply(json::Object fields) {
    const double wallExec = finish();
    json::Object usage = renderUsage();
    if (token_.cancelled()) {
      const util::CancelReason reason = token_.reason();
      const bool deadline = reason == util::CancelReason::Deadline;
      status_ = deadline ? "deadline_exceeded" : "cancelled";
      (deadline ? engine_.cancelledDeadline_ : engine_.cancelledClient_).add(1);
      usage["cancelled"] = util::cancelReasonName(reason);
    }
    fields["usage"] = std::move(usage);
    return statusResponse(request_.id, request_.cmd, std::move(fields),
                          status_, wallExec, rctx_.gainEvals());
  }

  std::string fail(const std::string& error) {
    status_ = "error";
    error_ = error;
    return engine_.errorReply(request_.id, error_, finish());
  }

 private:
  static bool readProfile(const Request& request, std::string& error) {
    try {
      return getBoolParam(request, "profile", false);
    } catch (const std::exception& e) {
      error = e.what();
      return false;
    }
  }

  double wallSince() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         begin_)
        .count();
  }

  /// Freezes the execution wall time and finalizes the context, then runs
  /// the tail-sampling flight recorder (docs/ALGORITHMS.md §14): a request
  /// that breached the latency threshold or asked for a profile gets its
  /// trace events dumped. The wall time is frozen before the (possibly
  /// file-writing) dump so usage phases sum to queue_wait + wall_seconds.
  /// A dump failure (unwritable dir) is logged, never reported to the
  /// client: diagnostics must not fail the request they diagnose. Failing
  /// requests get a dump too; the error schema has no usage block, so
  /// their path is log-only. Returns the execution wall seconds.
  double finish() {
    const double wallExec = wallSince();
    rctx_.finalize(wallExec);
    const double thresholdMs = obs::slowRequestThresholdMs();
    const bool slow =
        thresholdMs > 0.0 && (queueWait_ + wallExec) * 1000.0 >= thresholdMs;
    if (slow) engine_.slowRequests_.add(1);
    if (!slow && !rctx_.profile()) return wallExec;
    try {
      traceFile_ = obs::dumpFlightRecord(rctx_);
    } catch (const std::exception& e) {
      if (obs::log::enabled(obs::log::Level::Warn)) {
        obs::log::write(obs::log::Level::Warn, "serve.flight_record_failed",
                        {{"id", rctx_.id()}, {"error", e.what()}});
      }
    }
    return wallExec;
  }

  /// The usage block of an ok or anytime reply (docs/ALGORITHMS.md §14).
  json::Object renderUsage() const {
    json::Object usage;
    usage["gain_evals"] = rctx_.gainEvals();
    usage["cpu_seconds"] = rctx_.cpuSeconds();
    if (*rctx_.apspCache() != '\0') usage["apsp_cache"] = rctx_.apspCache();
    json::Object phases;
    for (const obs::Phase phase :
         {obs::Phase::QueueWait, obs::Phase::Apsp, obs::Phase::RoundScan,
          obs::Phase::Other}) {
      phases[obs::phaseName(phase)] = rctx_.phaseSeconds(phase);
    }
    usage["phases"] = std::move(phases);
    // Distance-oracle work charged to this request (docs/ALGORITHMS.md
    // §16). Omitted entirely when the request touched no oracle (load_*,
    // stats, health stay lean).
    const Usage& ou = rctx_.oracle();
    if (ou.any()) {
      json::Object oracleUsage;
      for (const OracleCounter& c : kOracleCounters) {
        oracleUsage[c.usage] = (ou.*c.field).load(std::memory_order_relaxed);
      }
      oracleUsage["row_build_seconds"] =
          static_cast<double>(ou.rowBuildNs.load(std::memory_order_relaxed)) *
          1e-9;
      usage["oracle"] = std::move(oracleUsage);
    }
    if (!traceFile_.empty()) usage["trace_file"] = traceFile_;
    if (rctx_.deadlineSeconds() > 0.0) {
      usage["deadline_seconds"] = rctx_.deadlineSeconds();
    }
    if (progress_.has_value()) {
      json::Object progUsage;
      progUsage["every_ms"] = progress_->everyMs();
      progUsage["snapshots"] = progress_->offered();
      progUsage["events"] = progress_->emitted();
      usage["progress"] = std::move(progUsage);
    }
    return usage;
  }

  Engine& engine_;
  const Request& request_;
  const double queueWait_;
  obs::ScopedSpan requestSpan_{"serve.request", spanStats().request};
  obs::ScopedSpan cmdSpan_;
  const std::chrono::steady_clock::time_point begin_ =
      std::chrono::steady_clock::now();
  std::string profileError_;
  obs::RequestContext rctx_;
  std::optional<CancelTicket> ownTicket_;
  util::CancelToken& token_;
  std::optional<obs::ProgressReporter> progress_;
  const obs::ScopedRequestBind bind_;
  const char* status_ = "ok";
  std::string error_;
  std::string traceFile_;
};

std::string Engine::handleLine(const std::string& line) {
  try {
    return handle(parseRequest(line));
  } catch (const ProtocolError& e) {
    return errorReply(e.id, e.what());
  }
}

std::string Engine::handle(const Request& request, double queueWaitSeconds,
                           const Notify* notify, util::CancelToken* cancel) {
  // Indexed by Command, in the order of the protocol's command table.
  static constexpr Handler kHandlers[] = {
      &Engine::cmdLoadGraph, &Engine::cmdLoadPairs, &Engine::cmdSolve,
      &Engine::cmdEval,      &Engine::cmdStats,     &Engine::cmdMetrics,
      &Engine::cmdHealth,    &Engine::cmdSleep,     &Engine::cmdCancel,
      &Engine::cmdShutdown,
  };
  static_assert(std::size(kHandlers) == kCommandCount);
  Lifecycle life(*this, request, queueWaitSeconds, cancel);
  try {
    life.arm(notify);
    json::Object fields;
    {
      // The executor thread's own CPU share; workers add theirs in the
      // pool (util/parallel.cpp).
      const obs::ScopedCpuAttribution cpu;
      fields = (this->*kHandlers[static_cast<std::size_t>(request.cmd)])(
          request, life.context());
    }
    return life.reply(std::move(fields));
  } catch (const std::exception& e) {
    return life.fail(e.what());
  }
}

std::string Engine::errorReply(const json::Value& id,
                               const std::string& message,
                               double wallSeconds) {
  errors_.add(1);
  return errorResponse(id, message, wallSeconds);
}

json::Object Engine::cmdSleep(const Request& request,
                              obs::RequestContext& ctx) {
  // Cancellation-aware: sleeps in <= 50 ms slices so a `cancel` or an armed
  // deadline interrupts the wait promptly (the queue-backpressure tests use
  // sleep as a stand-in for a long solve). The reply reports the REQUESTED
  // duration so uncancelled replies stay byte-identical.
  const long long ms = getIntParam(request, "ms", 0, 0, 60000);
  const util::CancelToken& cancel = *ctx.cancelToken();
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!cancel.cancelled()) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= until) break;
    std::this_thread::sleep_for(std::min<std::chrono::milliseconds>(
        std::chrono::duration_cast<std::chrono::milliseconds>(until - now),
        std::chrono::milliseconds(50)));
  }
  return {{"slept_ms", ms}};
}

json::Object Engine::cmdShutdown(const Request&, obs::RequestContext&) {
  shutdown_.store(true, std::memory_order_release);
  return {{"draining", true}};
}

json::Object Engine::cmdLoadGraph(const Request& request,
                                  obs::RequestContext&) {
  const std::string payload = loadPayload(request, "load_graph");
  std::istringstream in(payload);
  msc::graph::Graph g;
  try {
    g = msc::graph::readEdgeList(in);
  } catch (const std::exception& e) {
    throw ProtocolError(std::string("bad edge list: ") + e.what());
  }
  // msc.serve.v1 addition: "distance_mode" picks the candidate universe
  // of every later solve on this graph (auto | dense | pair_centric); auto
  // is resolved once, here, by node count. Rows are built on demand in
  // every mode.
  const std::string modeStr =
      getStringParam(request, "distance_mode", "auto");
  const auto mode = msc::graph::parseDistanceMode(modeStr);
  if (!mode) {
    throw ProtocolError("unknown distance_mode \"" + modeStr +
                        "\" (auto|dense|pair_centric)");
  }
  json::Object fields;
  fields["nodes"] = g.nodeCount();
  fields["edges"] = g.edgeCount();
  const std::string key = cache_.putGraph(std::move(g), *mode);
  fields["graph"] = key;
  fields["distance_mode"] = msc::graph::distanceModeName(*mode);
  registerAlias(request, key, fields);
  return fields;
}

json::Object Engine::cmdLoadPairs(const Request& request,
                                  obs::RequestContext&) {
  const std::string payload = loadPayload(request, "load_pairs");
  std::vector<core::SocialPair> pairs = parsePairsText(payload);
  json::Object fields;
  fields["count"] = pairs.size();
  const std::string key = cache_.putPairs(std::move(pairs));
  fields["pairs"] = key;
  registerAlias(request, key, fields);
  return fields;
}

json::Object Engine::cmdSolve(const Request& request,
                              obs::RequestContext& ctx) {
  const std::string graphKey = resolveKey(requireStringParam(request, "graph"));
  const std::string pairsKey = resolveKey(requireStringParam(request, "pairs"));
  const double threshold = requestThreshold(request);
  const std::string algo = getStringParam(request, "algo", "greedy");
  const int k = static_cast<int>(getIntParam(request, "k", 5, 0, 1 << 20));
  const int threads = static_cast<int>(
      getIntParam(request, "threads", config_.defaultThreads, 0, 4096));
  const auto seed =
      static_cast<std::uint64_t>(getIntParam(request, "seed", 1, 0, 1LL << 62));
  const int iters =
      static_cast<int>(getIntParam(request, "iters", 500, 1, 1 << 28));

  bool apspHit = false;
  bool allPairs = true;
  const core::Instance inst = cache_.instance(graphKey, pairsKey, threshold,
                                              threads, &apspHit, &allPairs);

  // Candidate universe, decided by the graph's distance_mode alone: all
  // n(n-1)/2 node pairs under dense (memoized per graph), but only
  // pair-node pairs under pair_centric — on a large graph the full
  // universe alone is O(n^2). The restriction is visible in "candidates".
  std::shared_ptr<const core::CandidateSet> cands;
  if (!allPairs) {
    const auto& nodes = inst.pairNodes();
    core::ShortcutList list;
    list.reserve(nodes.size() * (nodes.size() - 1) / 2);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        list.push_back(core::Shortcut::make(nodes[i], nodes[j]));
      }
    }
    cands = std::make_shared<const core::CandidateSet>(std::move(list));
  } else {
    cands = cache_.candidates(graphKey);
  }

  const core::SolveOptions options{.k = k, .threads = threads, .seed = seed};

  json::Object fields;
  core::ShortcutList placement;
  double value = 0.0;
  // Objective knob (msc.serve.v1 addition): "sigma" is the paper's
  // shortest-path surrogate; "mc_reliability" maximizes the sampled
  // multi-path σ̂ over a possible-worlds WorldSet (src/mc). The MC path
  // reuses the surrogate's candidate universe and solve options; "worlds"
  // picks the sample count W.
  const std::string objective = getStringParam(request, "objective", "sigma");
  if (objective == "mc_reliability") {
    if (algo != "greedy" && algo != "sandwich" && algo != "aa") {
      throw ProtocolError(
          "objective \"mc_reliability\" supports algo greedy|sandwich|aa");
    }
    const int worlds = static_cast<int>(
        getIntParam(request, "worlds", 1024, 1, 1 << 20));
    const mc::McOptions mcOptions{.worlds = worlds};
    const mc::McSolveResult res =
        algo == "greedy" ? mc::greedy(inst, *cands, options, mcOptions)
                         : mc::sandwich(inst, *cands, options, mcOptions);
    placement = res.placement;
    value = res.sigmaHat;
    ctx.addGainEvals(res.gainEvaluations);
    fields["worlds"] = res.worlds;
    fields["uncertain_pairs"] = res.uncertainPairs;
    if (algo != "greedy") fields["winner"] = res.winner;
  } else if (objective != "sigma") {
    throw ProtocolError("unknown objective \"" + objective +
                        "\" (sigma|mc_reliability)");
  } else if (algo == "greedy") {
    core::SigmaEvaluator sigma(inst);
    const auto res = core::greedyMaximize(sigma, *cands, options);
    placement = res.placement;
    value = res.value;
    ctx.addGainEvals(res.gainEvaluations);
  } else if (algo == "sandwich" || algo == "aa") {
    const auto res = core::sandwichApproximation(inst, *cands, options);
    placement = res.placement;
    value = res.sigma;
    ctx.addGainEvals(res.gainEvaluations);
    fields["winner"] = res.winner;
    if (const auto ratio = res.dataDependentRatio()) {
      fields["data_dependent_ratio"] = *ratio;
    }
    // Certified optimality interval on interrupted (anytime) replies only:
    // σ(F*) <= nu(F_nu)/(1 - 1/e) whenever the ν pass ran to completion,
    // so the client knows how much a cancelled solve left on the table.
    // Completed replies stay byte-identical to the pre-§18 schema.
    if (res.interrupted != util::CancelReason::None &&
        res.certifiedUpperBound.has_value()) {
      fields["certified_upper_bound"] = *res.certifiedUpperBound;
      fields["bound_gap"] = *res.certifiedUpperBound - res.sigma;
    }
  } else if (algo == "ea") {
    core::SigmaEvaluator sigma(inst);
    core::EaConfig cfg;
    cfg.iterations = iters;
    const auto res = core::evolutionaryAlgorithm(sigma, *cands, options, cfg);
    placement = res.placement;
    value = res.value;
    ctx.addGainEvals(res.gainEvaluations);
  } else if (algo == "aea") {
    core::SigmaEvaluator sigma(inst);
    core::AeaConfig cfg;
    cfg.iterations = iters;
    const auto res =
        core::adaptiveEvolutionaryAlgorithm(sigma, *cands, options, cfg);
    placement = res.placement;
    value = res.value;
    ctx.addGainEvals(res.gainEvaluations);
  } else if (algo == "budgeted") {
    const double budget =
        getNumberParam(request, "budget", static_cast<double>(k));
    if (!(budget >= 0.0)) throw ProtocolError("\"budget\" must be >= 0");
    core::SigmaEvaluator sigma(inst);
    const auto res = core::budgetedGreedy(sigma, *cands, core::unitCost(),
                                          budget, options);
    placement = res.placement;
    value = res.value;
    ctx.addGainEvals(res.gainEvaluations);
    fields["winner"] = res.winner;
    fields["cost"] = res.cost;
  } else {
    throw ProtocolError("unknown algo \"" + algo +
                        "\" (greedy|sandwich|ea|aea|budgeted)");
  }

  fields["algo"] = algo;
  fields["objective"] = objective;
  fields["k"] = k;
  fields["threads"] = threads;
  fields["placement"] = placementSpec(placement);
  fields["value"] = value;
  fields["pairs_total"] = inst.pairCount();
  fields["apsp_cache"] = apspHit ? "hit" : "miss";
  ctx.noteApspCache(apspHit);
  // msc.serve.v1 additions: the graph's resolved distance mode and how
  // many candidate shortcuts the search ranged over.
  fields["distance_mode"] = resolvedModeName(allPairs);
  fields["candidates"] = cands->size();
  cache_.recharge(graphKey);  // the rows this solve built
  return fields;
}

json::Object Engine::cmdEval(const Request& request,
                             obs::RequestContext& ctx) {
  const std::string graphKey = resolveKey(requireStringParam(request, "graph"));
  const std::string pairsKey = resolveKey(requireStringParam(request, "pairs"));
  const double threshold = requestThreshold(request);
  const core::ShortcutList placement =
      parsePlacementSpec(requireStringParam(request, "placement"));

  bool apspHit = false;
  bool allPairs = true;
  const core::Instance inst =
      cache_.instance(graphKey, pairsKey, threshold, config_.defaultThreads,
                      &apspHit, &allPairs);
  for (const core::Shortcut& f : placement) {
    inst.graph().checkNode(f.a);  // untrusted input: reject out-of-range
    inst.graph().checkNode(f.b);  // endpoints before they reach the matrix
  }

  json::Object fields;
  fields["sigma"] = core::sigmaValue(inst, placement);
  fields["pairs_total"] = inst.pairCount();
  fields["placement"] = placementSpec(placement);
  fields["apsp_cache"] = apspHit ? "hit" : "miss";
  ctx.noteApspCache(apspHit);
  fields["distance_mode"] = resolvedModeName(allPairs);
  cache_.recharge(graphKey);  // the rows this evaluation built
  return fields;
}

json::Object Engine::cmdStats(const Request&, obs::RequestContext&) {
  const obs::Snapshot snap = snapshot();
  const auto v = [&snap](std::string_view name, const char* labels = "") {
    const obs::Sample* s = snap.find(name, labels);
    return s != nullptr ? s->value : 0.0;
  };
  json::Object oracles{{"count", v("serve.oracle.count")},
                       {"bytes", v("serve.oracle.bytes")},
                       {"rows_resident", v("serve.oracle.rows")}};
  for (std::size_t i = 0; i < oracleTotals_.size(); ++i) {
    const OracleCounter& c = kOracleCounters[i];
    oracles[c.usage] = v(c.series, c.labels);
  }
  json::Object cache{{"apsp_computes", v("serve.cache.apsp_misses")},
                     {"oracles", std::move(oracles)}};
  for (const std::string field :
       {"bytes_used", "byte_budget", "entries", "graph_hits", "graph_misses",
        "pairs_hits", "pairs_misses", "apsp_hits", "evictions"}) {
    cache[field] = v("serve.cache." + field);
  }
  json::Object fields{
      {"schema_versions", json::Array{json::Value(kSchemaVersion)}},
      {"uptime_seconds", v("serve.uptime_seconds")},
      {"requests", v("serve.requests")},
      {"errors", v("serve.errors")},
      {"cache", std::move(cache)},
      {"progress",
       json::Object{{"snapshots", v("progress.snapshots")},
                    {"events", v("progress.events")},
                    {"last_rounds_per_second", v("solver.rounds_per_second")}}},
      {"cancellations",
       json::Object{
           {"client", v("serve.cancellations", "reason=\"client\"")},
           {"deadline", v("serve.cancellations", "reason=\"deadline\"")}}}};
  if (snap.find("serve.queue_limit") != nullptr) {  // under a Server
    fields["queue_limit"] = v("serve.queue_limit");
    fields["queue_depth"] = v("serve.requests_inflight", "phase=\"queued\"");
    fields["overloaded"] = v("serve.overloaded");
  }
  // Every counter series, keyed as in msc.metrics.v1, plus the
  // request-latency histogram, so one stats request answers "what has this
  // server been doing".
  json::Object counters;
  for (const obs::Sample& s : snap.samples) {
    if (s.type == obs::MetricType::Counter) counters[s.key()] = s.value;
  }
  fields["obs_counters"] = std::move(counters);
  json::Object latency{{"count", 0}};
  for (const obs::HistogramRow& row : snap.histograms) {
    const obs::HistogramSnapshot& lat = row.snapshot;
    if (row.name != "serve.request_seconds" || lat.count == 0) continue;
    latency = {{"count", lat.count}, {"p50", lat.p50()}, {"p90", lat.p90()},
               {"p99", lat.p99()},   {"max", lat.max}};
  }
  fields["request_seconds"] = std::move(latency);
  return fields;
}

json::Object Engine::cmdMetrics(const Request&, obs::RequestContext&) {
  json::Object fields;
  fields["format"] = "prometheus-text-0.0.4";
  fields["prometheus"] = metricsText();
  return fields;
}

obs::Snapshot Engine::snapshot() const {
  const InstanceCache::Stats cs = cache_.stats();
  std::vector<obs::Sample> rows = metrics_.snapshot().samples;
  // The instance cache keeps its own counters (tests and perfbench read
  // InstanceCache::Stats); they join the snapshot here, read once.
  const auto add = [&rows](const char* name, obs::MetricType type,
                           auto value, const char* help = "") {
    rows.push_back({name, "", type, help, static_cast<double>(value)});
  };
  constexpr auto C = obs::MetricType::Counter;
  constexpr auto G = obs::MetricType::Gauge;
  add("serve.uptime_seconds", G,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count());
  add("serve.cache.bytes_used", G, cs.bytesUsed);
  add("serve.cache.byte_budget", G, cs.byteBudget);
  add("serve.cache.entries", G, cs.entries);
  add("serve.cache.graph_hits", C, cs.graphHits);
  add("serve.cache.graph_misses", C, cs.graphMisses);
  add("serve.cache.pairs_hits", C, cs.pairsHits);
  add("serve.cache.pairs_misses", C, cs.pairsMisses);
  add("serve.cache.apsp_hits", C, cs.apspHits);
  add("serve.cache.apsp_misses", C, cs.apspComputes);
  add("serve.cache.evictions", C, cs.evictions);
  add("serve.oracle.count", G, cs.oracles);
  add("serve.oracle.bytes", G, cs.oracleBytes,
      "resident bytes of cached distance oracles");
  add("serve.oracle.rows", G, cs.oracleRows,
      "distance rows resident in cached oracles");
  obs::Snapshot snap = obs::Registry::global().snapshot();
  snap.addSamples(std::move(rows));
  return snap;
}

std::string Engine::metricsText() const { return obs::toProm(snapshot()); }

bool Engine::ready() const {
  if (shutdownRequested()) return false;
  if (readyHook_ && !readyHook_()) return false;
  return true;
}

json::Object Engine::cmdHealth(const Request&, obs::RequestContext&) {
  const bool isReady = ready();
  json::Object fields;
  fields["ready"] = isReady;
  fields["state"] = isReady ? "ready" : "draining";
  fields["uptime_seconds"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  return fields;
}

json::Object Engine::cmdCancel(const Request& request,
                               obs::RequestContext&) {
  const json::Value* target = findParam(request, "target");
  if (target == nullptr) {
    throw ProtocolError("cancel needs a \"target\" request id");
  }
  if (!target->isString() && !target->isNumber()) {
    throw ProtocolError("\"target\" must be a string or number");
  }
  // Ids are matched by their JSON rendering, the registry's key — so 7
  // matches 7 and "7" matches "7", never across. The registry holds queued
  // requests too (the Server registers at admission): they stop at their
  // first round boundary once the executor reaches them.
  bool delivered = false;
  {
    const std::lock_guard<std::mutex> lock(cancelMu_);
    const auto [lo, hi] = cancelTokens_.equal_range(json::dump(*target));
    for (auto it = lo; it != hi; ++it) {
      it->second->requestCancel(util::CancelReason::Client);
      delivered = true;
    }
  }
  json::Object fields;
  fields["target"] = *target;
  fields["result"] = delivered ? "delivered" : "not_found";
  return fields;
}

std::string Engine::resolveKey(const std::string& ref) {
  const std::lock_guard<std::mutex> lock(aliasMu_);
  const auto it = aliases_.find(ref);
  return it == aliases_.end() ? ref : it->second;
}

void Engine::registerAlias(const Request& request, const std::string& key,
                           json::Object& fields) {
  const std::string alias = getStringParam(request, "as", "");
  if (alias.empty()) return;
  fields["alias"] = alias;
  const std::lock_guard<std::mutex> lock(aliasMu_);
  aliases_[alias] = key;
}

// ---------------------------------------------------------------------------
// Server: bounded admission queue + executor shared by all front ends.
// ---------------------------------------------------------------------------

namespace {

/// Where a response line goes. write() appends '\n' and is safe to call
/// from the reader (overload/parse errors) and the executor concurrently.
class ReplySink {
 public:
  virtual ~ReplySink() = default;
  virtual void write(const std::string& line) = 0;
};

class FdSink final : public ReplySink {
 public:
  /// With `ownsFd`, the fd closes when the last sink reference goes away —
  /// queued Jobs keep the sink alive, so a connection whose reader hit EOF
  /// (e.g. a pipelining client that half-closed) still receives every
  /// response for its admitted requests before the fd is released.
  explicit FdSink(int fd, bool ownsFd = false) : fd_(fd), ownsFd_(ownsFd) {}
  ~FdSink() override {
    if (ownsFd_) ::close(fd_);
  }
  void write(const std::string& line) override {
    const std::lock_guard<std::mutex> lock(mu_);
    std::string buf = line;
    buf.push_back('\n');
    std::size_t off = 0;
    while (off < buf.size()) {
      const ssize_t n = ::write(fd_, buf.data() + off, buf.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return;  // client went away; drop the response
      }
      off += static_cast<std::size_t>(n);
    }
  }

 private:
  std::mutex mu_;
  int fd_;
  bool ownsFd_;
};

/// poll()-based '\n'-delimited reader that re-checks `stop` every 200 ms so
/// shutdown is noticed even while the peer is idle.
class FdLineReader {
 public:
  explicit FdLineReader(int fd) : fd_(fd) {}

  /// False on EOF, error or stop(). A line over kMaxLineBytes comes back
  /// once with `tooLong` set and an empty `line`; the rest of it is
  /// discarded through its newline, and reading goes on after it.
  bool next(std::string& line, bool& tooLong,
            const std::function<bool()>& stop) {
    tooLong = false;
    while (true) {
      const auto nl = buf_.find('\n', scanned_);
      if (nl != std::string::npos) {
        if (!discarding_) line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        scanned_ = 0;
        if (std::exchange(discarding_, false)) continue;
        return true;
      }
      if (discarding_) buf_.clear();
      scanned_ = buf_.size();
      if (buf_.size() > kMaxLineBytes) {
        buf_.clear();
        scanned_ = 0;
        discarding_ = true;
        line.clear();
        tooLong = true;
        return true;
      }
      if (eof_) {
        if (buf_.empty()) return false;
        line.swap(buf_);  // final line without trailing newline
        buf_.clear();
        eof_ = true;
        return true;
      }
      struct pollfd pfd {fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, 200);
      if (stop && stop()) return false;
      if (pr < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (pr == 0) continue;
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) {
        eof_ = true;
        continue;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
  std::size_t scanned_ = 0;
  bool eof_ = false;
  bool discarding_ = false;  // inside an over-long line
};

bool isBlank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

}  // namespace

/// One serving session: the admission queue, its executor thread, and the
/// admit/drain rules shared by the fd and socket front ends.
struct ServerRun {
  struct Job {
    Request request;
    std::shared_ptr<ReplySink> sink;
    std::chrono::steady_clock::time_point admitted;
    /// Taken at ADMISSION (not execution), so a `cancel` answered on the
    /// reader thread reaches requests still sitting in the queue: they
    /// execute later but stop at their first round boundary.
    std::unique_ptr<Engine::CancelTicket> ticket;
  };

  Engine& engine;
  const std::size_t queueLimit;
  obs::Counter& overloaded;
  obs::Gauge& queued;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Job> queue;
  bool readersDone = false;   // no further admissions will arrive
  bool stopping = false;      // shutdown executed; error-out new arrivals
  std::thread executor;

  explicit ServerRun(Server& s)
      : engine(s.engine_),
        queueLimit(s.config_.queueLimit),
        overloaded(engine.metrics().counter("serve.overloaded")),
        queued(engine.metrics().gauge("serve.requests_inflight",
                                      "phase=\"queued\"")),
        executor([this] { runExecutor(); }) {}

  ~ServerRun() { finish(); }

  void publishDepth(std::size_t depth) {
    queued.set(static_cast<double>(depth));
    if (obs::trace::enabled()) {
      obs::trace::counter("serve.queue_depth", static_cast<double>(depth));
    }
  }

  /// Answers a job. Its cancel ticket goes first, so once the client sees
  /// the reply, a `cancel` naming it finds nothing.
  static void answer(Job& job, const std::string& line) {
    job.ticket.reset();
    job.sink->write(line);
  }

  /// Parses and admits one line; responses for rejected lines (parse error,
  /// overload, shutting down) are written immediately by the caller thread.
  void admitLine(const std::string& line,
                 const std::shared_ptr<ReplySink>& sink) {
    if (isBlank(line)) return;
    Request request;
    try {
      request = parseRequest(line);
    } catch (const ProtocolError& e) {
      sink->write(engine.errorReply(e.id, e.what()));
      return;
    }
    if (commandSpec(request.cmd).outOfBand) {
      sink->write(engine.handle(request));
      return;
    }
    std::size_t depth = 0;
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (stopping) {
        sink->write(engine.errorReply(request.id, kShuttingDown));
        return;
      }
      if (queue.size() >= queueLimit) {
        overloaded.add(1);
        sink->write(overloadedResponse(request.id, queue.size(), queueLimit));
        return;
      }
      auto ticket = std::make_unique<Engine::CancelTicket>(engine, request.id);
      queue.push_back({std::move(request), sink,
                       std::chrono::steady_clock::now(), std::move(ticket)});
      depth = queue.size();
    }
    publishDepth(depth);
    cv.notify_one();
  }

  void runExecutor() {
    obs::trace::setCurrentThreadName("serve.executor");
    while (true) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return !queue.empty() || readersDone; });
        if (queue.empty()) return;  // readersDone and fully drained
        job = std::move(queue.front());
        queue.pop_front();
        publishDepth(queue.size());
      }
      const double queueWait = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   job.admitted)
                                   .count();
      // Progress events go to the job's own sink (thread-safe; interleaves
      // with replies for other requests on the same connection but never
      // splits a line).
      const Engine::Notify notify = [&job](const std::string& line) {
        job.sink->write(line);
      };
      answer(job, engine.handle(job.request, queueWait, &notify,
                                &job.ticket->token()));
      if (engine.shutdownRequested()) {
        drainWithShutdownError();
        return;
      }
    }
  }

  /// After a shutdown request: everything still queued behind it gets a
  /// structured error instead of silence, then admission is closed.
  void drainWithShutdownError() {
    std::deque<Job> rest;
    {
      const std::lock_guard<std::mutex> lock(mu);
      stopping = true;
      rest.swap(queue);
    }
    publishDepth(0);
    for (Job& job : rest) {
      answer(job, engine.errorReply(job.request.id, kShuttingDown));
    }
  }

  /// Admits every line read from `fd` until EOF or `stop`; a line over
  /// kMaxLineBytes is answered with an error and skipped.
  void admitFd(int fd, const std::shared_ptr<ReplySink>& sink,
               const std::function<bool()>& stop) {
    FdLineReader reader(fd);
    std::string line;
    bool tooLong = false;
    while (reader.next(line, tooLong, stop)) {
      if (!tooLong) {
        admitLine(line, sink);
        continue;
      }
      sink->write(engine.errorReply(
          json::Value(), "request line exceeds the " +
                             std::to_string(kMaxLineBytes >> 20) +
                             " MiB line limit; discarded"));
    }
  }

  bool stopped() {
    const std::lock_guard<std::mutex> lock(mu);
    return stopping;
  }

  void finish() {
    {
      const std::lock_guard<std::mutex> lock(mu);
      readersDone = true;
    }
    cv.notify_all();
    if (executor.joinable()) executor.join();
  }
};

Server::Server(ServerConfig config)
    : config_(config), engine_(config.engine) {
  engine_.metrics().counter(
      "serve.overloaded", {},
      "requests answered \"overloaded\" by a full admission queue");
  engine_.metrics()
      .gauge("serve.queue_limit", {}, "admission queue capacity")
      .set(static_cast<double>(config_.queueLimit));
  // A server also drains on the process-wide (signal-driven) stop flag, so
  // health must report not-ready as soon as it is raised.
  engine_.setReadyHook([] { return !Server::shutdownRequested(); });
}

Server::~Server() { stopMetricsHttp(); }

int Server::startMetricsHttp(int port) {
  if (metricsHttpThread_.joinable()) {
    throw std::runtime_error("metrics HTTP listener already running");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("metrics listener bind/listen(port " +
                             std::to_string(port) + "): " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("metrics listener getsockname(): " + err);
  }
  const int boundPort = ntohs(bound.sin_port);

  metricsHttpStop_.store(false, std::memory_order_release);
  metricsHttpFd_ = fd;
  metricsHttpThread_ = std::thread([this, fd] {
    obs::trace::setCurrentThreadName("serve.metrics_http");
    // Keeps serving while the server drains (so /healthz can report 503
    // "draining") until stopMetricsHttp() or the destructor stops it.
    while (!metricsHttpStop_.load(std::memory_order_acquire)) {
      struct pollfd pfd {fd, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, 200);
      if (pr < 0 && errno != EINTR) break;
      if (pr <= 0) continue;
      const int conn = ::accept(fd, nullptr, nullptr);
      if (conn < 0) continue;
      serveOneMetricsHttpConn(conn);
      ::close(conn);
    }
  });
  return boundPort;
}

void Server::stopMetricsHttp() {
  metricsHttpStop_.store(true, std::memory_order_release);
  if (metricsHttpThread_.joinable()) metricsHttpThread_.join();
  if (metricsHttpFd_ >= 0) {
    ::close(metricsHttpFd_);
    metricsHttpFd_ = -1;
  }
}

void Server::serveOneMetricsHttpConn(int conn) {
  // Scrapes and probes are one-shot GETs: read until the blank line that
  // ends the request head (or 64 KiB / a short poll timeout, whichever
  // comes first), answer, close. No keep-alive.
  std::string head;
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.find("\n\n") == std::string::npos && head.size() < 65536) {
    struct pollfd pfd {conn, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 1000);
    if (pr <= 0) break;
    char chunk[4096];
    const ssize_t n = ::read(conn, chunk, sizeof(chunk));
    if (n <= 0) break;
    head.append(chunk, static_cast<std::size_t>(n));
  }
  const auto lineEnd = head.find_first_of("\r\n");
  const std::string requestLine =
      lineEnd == std::string::npos ? head : head.substr(0, lineEnd);

  std::string status = "404 Not Found";
  std::string contentType = "text/plain; charset=utf-8";
  std::string body = "not found\n";
  if (requestLine.rfind("GET /metrics", 0) == 0) {
    status = "200 OK";
    contentType = "text/plain; version=0.0.4; charset=utf-8";
    body = engine_.metricsText();
  } else if (requestLine.rfind("GET /healthz", 0) == 0 ||
             requestLine.rfind("GET /health", 0) == 0) {
    if (engine_.ready()) {
      status = "200 OK";
      body = "ok\n";
    } else {
      status = "503 Service Unavailable";
      body = "draining\n";
    }
  }

  std::string response = "HTTP/1.1 " + status +
                         "\r\nContent-Type: " + contentType +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  std::size_t off = 0;
  while (off < response.size()) {
    const ssize_t n =
        ::write(conn, response.data() + off, response.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

int Server::serveFd(int inFd, int outFd) {
  ServerRun run(*this);
  run.admitFd(inFd, std::make_shared<FdSink>(outFd),
              [this, &run] { return shutdownRequested() || run.stopped(); });
  run.finish();
  return 0;
}

int Server::serveUnixSocket(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd < 0) {
    throw std::runtime_error(std::string("socket(): ") + std::strerror(errno));
  }
  ::unlink(path.c_str());
  if (::bind(listenFd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listenFd, 16) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listenFd);
    throw std::runtime_error("bind/listen(" + path + "): " + err);
  }

  ServerRun run(*this);
  std::vector<std::thread> connections;
  const auto stop = [this, &run] {
    return shutdownRequested() || run.stopped();
  };
  while (!stop()) {
    struct pollfd pfd {listenFd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 200);
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    const int connFd = ::accept(listenFd, nullptr, nullptr);
    if (connFd < 0) continue;
    connections.emplace_back([connFd, &run, &stop] {
      obs::trace::setCurrentThreadName("serve.conn");
      // The owning sink closes connFd once the last queued Job for this
      // connection has been answered, not when the reader sees EOF.
      run.admitFd(connFd, std::make_shared<FdSink>(connFd, /*ownsFd=*/true),
                  stop);
    });
  }
  for (std::thread& t : connections) t.join();
  run.finish();
  ::close(listenFd);
  ::unlink(path.c_str());
  return 0;
}

void Server::requestShutdown() noexcept {
  g_shutdownFlag.store(true, std::memory_order_release);
}

bool Server::shutdownRequested() noexcept {
  return g_shutdownFlag.load(std::memory_order_acquire);
}

void Server::clearShutdownFlag() noexcept {
  g_shutdownFlag.store(false, std::memory_order_release);
}

}  // namespace msc::serve
