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
#include <istream>
#include <optional>
#include <ostream>
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

const char* commandSpanName(Command cmd) {
  switch (cmd) {
    case Command::LoadGraph: return "serve.cmd.load_graph";
    case Command::LoadPairs: return "serve.cmd.load_pairs";
    case Command::Solve: return "serve.cmd.solve";
    case Command::Eval: return "serve.cmd.eval";
    case Command::Stats: return "serve.cmd.stats";
    case Command::Metrics: return "serve.cmd.metrics";
    case Command::Health: return "serve.cmd.health";
    case Command::Sleep: return "serve.cmd.sleep";
    case Command::Cancel: return "serve.cmd.cancel";
    case Command::Shutdown: return "serve.cmd.shutdown";
  }
  return "serve.cmd.unknown";
}

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
    {"alt_queries", &Usage::altQueries, "serve.oracle.alt_queries", "", ""},
    {"rows_evolved", &Usage::rowsEvolved, nullptr, nullptr, nullptr},
    {"rows_replayed", &Usage::rowsReplayed, nullptr, nullptr, nullptr},
};

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

/// Tail-sampling flight recorder (docs/ALGORITHMS.md §14): dump the
/// request's trace events when it breached the latency threshold or asked
/// for a profile. Returns the dump path, "" when no dump was made. A dump
/// failure (unwritable dir) is reported in the log, never to the client —
/// diagnostics must not fail the request they diagnose.
std::string maybeDumpFlightRecord(const obs::RequestContext& rctx,
                                  double totalSeconds) {
  const double thresholdMs = obs::slowRequestThresholdMs();
  const bool slow = thresholdMs > 0.0 && totalSeconds * 1000.0 >= thresholdMs;
  // Always-on counter (like the latency histograms): tail breaches must be
  // visible on /metrics without MSC_METRICS.
  if (slow) obs::counter("serve.slow_requests").add(1);
  if (!slow && !rctx.profile()) return "";
  try {
    return obs::dumpFlightRecord(rctx);
  } catch (const std::exception& e) {
    if (obs::log::enabled(obs::log::Level::Warn)) {
      obs::log::write(obs::log::Level::Warn, "serve.flight_record_failed",
                      {{"id", rctx.id()}, {"error", e.what()}});
    }
    return "";
  }
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
}

std::string Engine::handleLine(const std::string& line) {
  try {
    return handle(parseRequest(line));
  } catch (const ProtocolError& e) {
    errors_.add(1);
    return errorResponse(e.id, e.what());
  }
}

std::string Engine::handle(const Request& request, double queueWaitSeconds,
                           const std::function<void(const std::string&)>*
                               notify,
                           util::CancelToken* cancel) {
  MSC_OBS_SPAN("serve.request");
  obs::ScopedSpan cmdSpan(commandSpanName(request.cmd));
  requests_.add(1);
  if (obs::enabled()) obs::counter(commandSpanName(request.cmd)).add(1);
  // Always-on latency histograms: a few relaxed atomics per request, cheap
  // enough that tail latency stays visible without MSC_METRICS.
  static auto& requestHist = obs::histogram("serve.request_seconds");
  static auto& queueWaitHist = obs::histogram("serve.queue_wait_seconds");
  queueWaitHist.record(queueWaitSeconds);

  const auto begin = std::chrono::steady_clock::now();
  const auto wallSince = [&begin] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         begin)
        .count();
  };

  // Request-scoped attribution (docs/ALGORITHMS.md §14): one context per
  // request, bound to the executor thread and inherited by every pool
  // worker / pass thread the solve spawns. "profile" is validated lazily
  // so a malformed value takes the normal error-response path below.
  bool profile = false;
  std::string profileError;
  try {
    profile = getBoolParam(request, "profile", false);
  } catch (const std::exception& e) {
    profileError = e.what();
  }
  obs::RequestContext rctx(json::dump(request.id), profile);
  rctx.addPhaseNs(obs::Phase::QueueWait,
                  static_cast<std::int64_t>(queueWaitSeconds * 1e9));

  // Cooperative cancellation (docs/ALGORITHMS.md §18): every request gets a
  // token — the Server's admission-time token when one was shared, else a
  // request-local one — registered under the request id so `cancel` can
  // reach it, and bound through the context so solvers poll it at round
  // boundaries. A fired token downgrades the reply to an anytime result.
  util::CancelToken localToken;
  util::CancelToken& token = cancel != nullptr ? *cancel : localToken;
  rctx.setCancelToken(&token);
  std::optional<obs::ProgressReporter> progressReporter;

  executing_.add(1);
  std::multimap<std::string, util::CancelToken*>::iterator inflightIt;
  bool inflightRegistered = false;
  if (!request.id.isNull()) {
    const std::lock_guard<std::mutex> lock(inflightMu_);
    inflightIt = inflightTokens_.emplace(json::dump(request.id), &token);
    inflightRegistered = true;
  }

  const obs::ScopedRequestBind bindRequest(&rctx);

  std::string response;
  const char* status = "ok";
  std::string error;
  std::string cache;
  std::string traceFile;
  double wallExec = 0.0;
  try {
    if (!profileError.empty()) throw ProtocolError(profileError, request.id);

    // Deadline (msc.serve.v1 addition): total budget in seconds from
    // admission. Queue wait already spent part of it, so the token is
    // armed with the remainder — a request that waited past its deadline
    // cancels at its first round boundary and still returns a reply.
    const double deadlineSeconds =
        getNumberParam(request, "deadline_seconds", 0.0);
    if (findParam(request, "deadline_seconds") != nullptr) {
      if (!(deadlineSeconds > 0.0)) {
        throw ProtocolError("\"deadline_seconds\" must be > 0");
      }
      rctx.setDeadlineSeconds(deadlineSeconds);
      token.setDeadlineAfterSeconds(deadlineSeconds - queueWaitSeconds);
    }

    // Progress streaming (msc.serve.v1 addition): {"progress":
    // {"every_ms": N}} emits rate-limited {"event":"progress"} lines via
    // `notify` while the solve runs. Without a notify sink (direct
    // Engine::handle callers) snapshots are still counted for `usage`.
    if (const json::Value* prog = findParam(request, "progress")) {
      if (!prog->isObject()) {
        throw ProtocolError("\"progress\" must be an object");
      }
      double everyMs = 100.0;
      const json::Object& progObj = prog->asObject();
      if (const auto it = progObj.find("every_ms"); it != progObj.end()) {
        if (!it->second.isNumber()) {
          throw ProtocolError("\"progress.every_ms\" must be a number");
        }
        everyMs = it->second.asNumber();
      }
      progressReporter.emplace(
          [notify, &request](const obs::ProgressSnapshot& snap) {
            if (notify != nullptr && *notify) {
              (*notify)(renderProgressEvent(request.id, snap));
            }
          },
          everyMs);
      rctx.setProgress(&*progressReporter);
    }

    std::uint64_t gainEvals = 0;
    json::Object fields;
    {
      // The executor thread's own CPU share; workers add theirs in the
      // pool (util/parallel.cpp), pass threads in sandwich.cpp.
      const obs::ScopedCpuAttribution cpu;
      fields = dispatch(request, gainEvals, token);
    }
    rctx.addGainEvals(gainEvals);
    if (const auto it = fields.find("apsp_cache");
        it != fields.end() && it->second.isString()) {
      cache = it->second.asString();
      rctx.noteApspCache(cache == "hit");
    }
    // Execution wall time is frozen before the (possibly file-writing)
    // flight-record dump so usage phases sum to queue_wait + wall_seconds.
    wallExec = wallSince();
    rctx.finalize(wallExec);
    traceFile = maybeDumpFlightRecord(rctx, queueWaitSeconds + wallExec);

    json::Object usage;
    usage["gain_evals"] = rctx.gainEvals();
    usage["cpu_seconds"] = rctx.cpuSeconds();
    if (*rctx.apspCache() != '\0') usage["apsp_cache"] = rctx.apspCache();
    json::Object phases;
    for (const obs::Phase phase :
         {obs::Phase::QueueWait, obs::Phase::Apsp, obs::Phase::RoundScan,
          obs::Phase::Other}) {
      phases[obs::phaseName(phase)] = rctx.phaseSeconds(phase);
    }
    usage["phases"] = std::move(phases);
    // msc.serve.v1 addition: distance-oracle work charged to this request
    // (docs/ALGORITHMS.md §16). Omitted entirely when the request touched
    // no oracle (load_*, stats, health stay lean).
    const obs::RequestContext::OracleUsage& ou = rctx.oracle();
    if (ou.any()) {
      json::Object oracleUsage;
      for (const OracleCounter& c : kOracleCounters) {
        oracleUsage[c.usage] = (ou.*c.field).load(std::memory_order_relaxed);
      }
      oracleUsage["row_build_seconds"] =
          static_cast<double>(ou.rowBuildNs.load(std::memory_order_relaxed)) *
          1e-9;
      if (ou.altSettledCount.load(std::memory_order_relaxed) > 0) {
        json::Object alt;
        alt["count"] = ou.altSettledCount.load(std::memory_order_relaxed);
        alt["p50"] = ou.altSettledQuantile(0.5);
        alt["p90"] = ou.altSettledQuantile(0.9);
        alt["max"] = ou.altSettledMax();
        oracleUsage["alt_settled_ratio"] = std::move(alt);
      }
      usage["oracle"] = std::move(oracleUsage);
    }
    if (!traceFile.empty()) usage["trace_file"] = traceFile;
    if (rctx.deadlineSeconds() > 0.0) {
      usage["deadline_seconds"] = rctx.deadlineSeconds();
    }
    if (progressReporter.has_value()) {
      json::Object progUsage;
      progUsage["every_ms"] = progressReporter->everyMs();
      progUsage["snapshots"] = progressReporter->offered();
      progUsage["events"] = progressReporter->emitted();
      usage["progress"] = std::move(progUsage);
    }
    // Anytime-result downgrade: the fields above already hold the
    // best-so-far state (completed-round prefix); only the status and the
    // usage annotation differ from a normal reply.
    if (token.cancelled()) {
      const util::CancelReason reason = token.reason();
      status = reason == util::CancelReason::Deadline ? "deadline_exceeded"
                                                      : "cancelled";
      (reason == util::CancelReason::Deadline ? cancelledDeadline_
                                              : cancelledClient_)
          .add(1);
      usage["cancelled"] = util::cancelReasonName(reason);
    }
    fields["usage"] = std::move(usage);
    response = statusResponse(request.id, request.cmd, std::move(fields),
                              status, wallExec, gainEvals);
  } catch (const std::exception& e) {
    errors_.add(1);
    status = "error";
    error = e.what();
    wallExec = wallSince();
    rctx.finalize(wallExec);
    // Slow *failing* requests are the ones most worth a flight record;
    // the error schema carries no usage block, so the path is log-only.
    traceFile = maybeDumpFlightRecord(rctx, queueWaitSeconds + wallExec);
    response = errorResponse(request.id, error, wallExec);
  }
  const double wall = wallSince();
  requestHist.record(wall);
  // Oracle totals: every request's usage.oracle, so they never go down
  // when the cache drops or rebuilds an oracle.
  if (const Usage& ou = rctx.oracle(); ou.any()) {
    for (std::size_t i = 0; i < oracleTotals_.size(); ++i) {
      oracleTotals_[i]->add(
          (ou.*kOracleCounters[i].field).load(std::memory_order_relaxed));
    }
  }
  // Always-on per-phase latency histograms (Prometheus per-phase p99s, so
  // a slow phase shows even when end-to-end latency is flat). Zero-duration
  // phases are skipped so cheap commands (health, stats) don't flood the
  // apsp/round_scan series.
  static auto& apspPhaseHist = obs::histogram("serve.phase.apsp_seconds");
  static auto& scanPhaseHist =
      obs::histogram("serve.phase.round_scan_seconds");
  static auto& otherPhaseHist = obs::histogram("serve.phase.other_seconds");
  if (rctx.phaseNs(obs::Phase::Apsp) > 0) {
    apspPhaseHist.record(rctx.phaseSeconds(obs::Phase::Apsp));
  }
  if (rctx.phaseNs(obs::Phase::RoundScan) > 0) {
    scanPhaseHist.record(rctx.phaseSeconds(obs::Phase::RoundScan));
  }
  if (rctx.phaseNs(obs::Phase::Other) > 0) {
    otherPhaseHist.record(rctx.phaseSeconds(obs::Phase::Other));
  }
  if (obs::log::enabled(obs::log::Level::Info)) {
    std::vector<obs::log::Field> logFields{
        {"id", json::dump(request.id)},
        {"cmd", commandName(request.cmd)},
        {"status", status},
        {"queue_wait_seconds", queueWaitSeconds},
        {"wall_seconds", wall},
        {"cpu_seconds", rctx.cpuSeconds()},
        {"apsp_seconds", rctx.phaseSeconds(obs::Phase::Apsp)},
        {"round_scan_seconds", rctx.phaseSeconds(obs::Phase::RoundScan)},
        {"gain_evals", rctx.gainEvals()},
    };
    if (!cache.empty()) logFields.emplace_back("cache", cache);
    if (!error.empty()) logFields.emplace_back("error", error);
    if (!traceFile.empty()) logFields.emplace_back("trace_file", traceFile);
    obs::log::write(obs::log::Level::Info, "serve.request", logFields);
  }
  if (inflightRegistered) {
    const std::lock_guard<std::mutex> lock(inflightMu_);
    inflightTokens_.erase(inflightIt);
  }
  executing_.add(-1);
  return response;
}

json::Object Engine::dispatch(const Request& request,
                              std::uint64_t& gainEvals,
                              util::CancelToken& cancel) {
  switch (request.cmd) {
    case Command::LoadGraph:
      return cmdLoadGraph(request);
    case Command::LoadPairs:
      return cmdLoadPairs(request);
    case Command::Solve:
      return cmdSolve(request, gainEvals);
    case Command::Eval:
      return cmdEval(request);
    case Command::Stats:
      return cmdStats(request);
    case Command::Metrics:
      return cmdMetrics(request);
    case Command::Health:
      return cmdHealth(request);
    case Command::Cancel:
      return cmdCancel(request);
    case Command::Sleep: {
      // Cancellation-aware: sleeps in <= 50 ms slices so a `cancel` or an
      // armed deadline interrupts the wait promptly (the queue-backpressure
      // tests use sleep as a stand-in for a long solve). The reply reports
      // the REQUESTED duration so uncancelled replies stay byte-identical.
      const long long ms = getIntParam(request, "ms", 0, 0, 60000);
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(ms);
      while (!cancel.cancelled()) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= until) break;
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(until - now);
        std::this_thread::sleep_for(
            std::min<std::chrono::milliseconds>(remaining,
                                                std::chrono::milliseconds(50)));
      }
      json::Object fields;
      fields["slept_ms"] = ms;
      return fields;
    }
    case Command::Shutdown: {
      shutdown_.store(true, std::memory_order_release);
      json::Object fields;
      fields["draining"] = true;
      return fields;
    }
  }
  throw ProtocolError("unhandled command", request.id);
}

json::Object Engine::cmdLoadGraph(const Request& request) {
  const std::string payload = loadPayload(request, "load_graph");
  std::istringstream in(payload);
  msc::graph::Graph g;
  try {
    g = msc::graph::readEdgeList(in);
  } catch (const std::exception& e) {
    throw ProtocolError(std::string("bad edge list: ") + e.what());
  }
  // msc.serve.v1 addition: "distance_mode" picks the distance mode for
  // every later solve on this graph (auto | dense | pair_centric); auto is
  // resolved once, here, by node count.
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
  const std::string alias = getStringParam(request, "as", "");
  if (!alias.empty()) {
    registerAlias(alias, key);
    fields["alias"] = alias;
  }
  return fields;
}

json::Object Engine::cmdLoadPairs(const Request& request) {
  const std::string payload = loadPayload(request, "load_pairs");
  std::vector<core::SocialPair> pairs = parsePairsText(payload);
  json::Object fields;
  fields["count"] = pairs.size();
  const std::string key = cache_.putPairs(std::move(pairs));
  fields["pairs"] = key;
  const std::string alias = getStringParam(request, "as", "");
  if (!alias.empty()) {
    registerAlias(alias, key);
    fields["alias"] = alias;
  }
  return fields;
}

json::Object Engine::cmdSolve(const Request& request,
                              std::uint64_t& gainEvals) {
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
  msc::graph::DistanceMode mode = msc::graph::DistanceMode::Dense;
  const core::Instance inst = cache_.instance(graphKey, pairsKey, threshold,
                                              threads, &apspHit, &mode);

  // Candidate universe, decided by the graph's resolved mode alone: all
  // n(n-1)/2 node pairs in the dense mode (memoized per graph), but only
  // pair-node pairs under pair_centric — materializing the full universe
  // would reintroduce the O(n^2) cost that mode exists to avoid. The
  // restriction is visible in "candidates".
  std::shared_ptr<const core::CandidateSet> cands;
  if (mode == msc::graph::DistanceMode::PairCentric) {
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
    gainEvals = res.gainEvaluations;
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
    gainEvals = res.gainEvaluations;
  } else if (algo == "sandwich" || algo == "aa") {
    const auto res = core::sandwichApproximation(inst, *cands, options);
    placement = res.placement;
    value = res.sigma;
    gainEvals = res.gainEvaluations;
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
    gainEvals = res.gainEvaluations;
  } else if (algo == "aea") {
    core::SigmaEvaluator sigma(inst);
    core::AeaConfig cfg;
    cfg.iterations = iters;
    const auto res =
        core::adaptiveEvolutionaryAlgorithm(sigma, *cands, options, cfg);
    placement = res.placement;
    value = res.value;
    gainEvals = res.gainEvaluations;
  } else if (algo == "budgeted") {
    const double budget =
        getNumberParam(request, "budget", static_cast<double>(k));
    if (!(budget >= 0.0)) throw ProtocolError("\"budget\" must be >= 0");
    core::SigmaEvaluator sigma(inst);
    const auto res = core::budgetedGreedy(sigma, *cands, core::unitCost(),
                                          budget, options);
    placement = res.placement;
    value = res.value;
    gainEvals = res.gainEvaluations;
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
  // msc.serve.v1 additions: the graph's resolved distance mode and how
  // many candidate shortcuts the search ranged over.
  fields["distance_mode"] = msc::graph::distanceModeName(mode);
  fields["candidates"] = cands->size();
  return fields;
}

json::Object Engine::cmdEval(const Request& request) {
  const std::string graphKey = resolveKey(requireStringParam(request, "graph"));
  const std::string pairsKey = resolveKey(requireStringParam(request, "pairs"));
  const double threshold = requestThreshold(request);
  const core::ShortcutList placement =
      parsePlacementSpec(requireStringParam(request, "placement"));

  bool apspHit = false;
  msc::graph::DistanceMode mode = msc::graph::DistanceMode::Dense;
  const core::Instance inst =
      cache_.instance(graphKey, pairsKey, threshold, config_.defaultThreads,
                      &apspHit, &mode);
  for (const core::Shortcut& f : placement) {
    inst.graph().checkNode(f.a);  // untrusted input: reject out-of-range
    inst.graph().checkNode(f.b);  // endpoints before they reach the matrix
  }

  json::Object fields;
  fields["sigma"] = core::sigmaValue(inst, placement);
  fields["pairs_total"] = inst.pairCount();
  fields["placement"] = placementSpec(placement);
  fields["apsp_cache"] = apspHit ? "hit" : "miss";
  fields["distance_mode"] = msc::graph::distanceModeName(mode);
  return fields;
}

json::Object Engine::cmdStats(const Request&) {
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
  // Every counter series, keyed as in msc.metrics.v1 (library counters
  // only move when MSC_METRICS is on), plus the always-on request-latency
  // histogram, so one stats request answers "what has this server been
  // doing".
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

json::Object Engine::cmdMetrics(const Request&) {
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
      "full distance rows resident in cached oracles");
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

json::Object Engine::cmdHealth(const Request&) {
  const bool isReady = ready();
  json::Object fields;
  fields["ready"] = isReady;
  fields["state"] = isReady ? "ready" : "draining";
  fields["uptime_seconds"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  return fields;
}

json::Object Engine::cmdCancel(const Request& request) {
  const json::Value* target = findParam(request, "target");
  if (target == nullptr) {
    throw ProtocolError("cancel needs a \"target\" request id");
  }
  if (!target->isString() && !target->isNumber()) {
    throw ProtocolError("\"target\" must be a string or number");
  }
  // Ids are matched by their JSON rendering, the same key the inflight
  // registry uses — so 7 matches 7 and "7" matches "7", never across.
  const std::string key = json::dump(*target);
  bool delivered = false;
  {
    const std::lock_guard<std::mutex> lock(inflightMu_);
    const auto [lo, hi] = inflightTokens_.equal_range(key);
    for (auto it = lo; it != hi; ++it) {
      it->second->requestCancel(util::CancelReason::Client);
      delivered = true;
    }
  }
  // Admission-queue tokens (requests admitted but not yet executing): the
  // Server's hook fires them so a queued request cancels at its very first
  // round boundary once the executor reaches it.
  if (cancelHook_ && cancelHook_(key)) delivered = true;
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

void Engine::registerAlias(const std::string& alias, const std::string& key) {
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

class StreamSink final : public ReplySink {
 public:
  explicit StreamSink(std::ostream& out) : out_(out) {}
  void write(const std::string& line) override {
    const std::lock_guard<std::mutex> lock(mu_);
    out_ << line << '\n';
    out_.flush();
  }

 private:
  std::mutex mu_;
  std::ostream& out_;
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
/// admit/drain rules shared by the stream, fd and socket front ends.
struct ServerRun {
  struct Job {
    Request request;
    std::shared_ptr<ReplySink> sink;
    std::chrono::steady_clock::time_point admitted;
    /// Created at ADMISSION (not execution) and registered in `tokens`
    /// under idKey, so a `cancel` answered on the reader thread reaches
    /// requests still sitting in the queue: they execute later but stop at
    /// their first round boundary. Null for requests without an id.
    std::shared_ptr<util::CancelToken> token;
    std::string idKey;
  };

  Engine& engine;
  const std::size_t queueLimit;
  /// Engine series: rejections answered here count with the engine's own
  /// error replies.
  obs::Counter& errors;
  obs::Counter& overloaded;
  obs::Gauge& queued;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Job> queue;
  /// Admission-time cancel registry: every queued or executing job with an
  /// id, keyed by the id's JSON rendering. Guarded by `mu`.
  std::multimap<std::string, std::shared_ptr<util::CancelToken>> tokens;
  bool readersDone = false;   // no further admissions will arrive
  bool stopping = false;      // shutdown executed; error-out new arrivals
  std::thread executor;

  explicit ServerRun(Server& s)
      : engine(s.engine_),
        queueLimit(s.config_.queueLimit),
        errors(engine.metrics().counter("serve.errors")),
        overloaded(engine.metrics().counter("serve.overloaded")),
        queued(engine.metrics().gauge("serve.requests_inflight",
                                      "phase=\"queued\"")) {
    engine.setCancelHook([this](const std::string& key) {
      const std::lock_guard<std::mutex> lock(mu);
      bool any = false;
      const auto [lo, hi] = tokens.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        it->second->requestCancel(util::CancelReason::Client);
        any = true;
      }
      return any;
    });
    executor = std::thread([this] { runExecutor(); });
  }

  ~ServerRun() { finish(); }

  void publishDepth(std::size_t depth) {
    queued.set(static_cast<double>(depth));
    if (obs::trace::enabled()) {
      obs::trace::counter("serve.queue_depth", static_cast<double>(depth));
    }
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
      errors.add(1);
      sink->write(errorResponse(e.id, e.what()));
      return;
    }
    // Readiness probes and cancels bypass the admission queue entirely:
    // answered on the reader thread (cheap, never queued behind a long
    // solve — a cancel stuck behind the very request it targets would be
    // useless). The engine's cancel hook reaches back into `tokens` here.
    if (request.cmd == Command::Health || request.cmd == Command::Cancel) {
      sink->write(engine.handle(request));
      return;
    }
    std::size_t depth = 0;
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (stopping) {
        errors.add(1);
        sink->write(errorResponse(request.id, "server is shutting down"));
        return;
      }
      if (queue.size() >= queueLimit) {
        overloaded.add(1);
        sink->write(overloadedResponse(request.id, queue.size(), queueLimit));
        return;
      }
      Job job{std::move(request), sink, std::chrono::steady_clock::now(),
              nullptr, ""};
      if (!job.request.id.isNull()) {
        job.idKey = json::dump(job.request.id);
        job.token = std::make_shared<util::CancelToken>();
        tokens.emplace(job.idKey, job.token);
      }
      queue.push_back(std::move(job));
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
      const std::function<void(const std::string&)> notify =
          [&job](const std::string& line) { job.sink->write(line); };
      job.sink->write(
          engine.handle(job.request, queueWait, &notify, job.token.get()));
      if (job.token != nullptr) releaseToken(job);
      if (engine.shutdownRequested()) {
        drainWithShutdownError();
        return;
      }
    }
  }

  /// Drops the answered job's token from the cancel registry (matched by
  /// identity — duplicate client ids each registered their own token).
  void releaseToken(const Job& job) {
    const std::lock_guard<std::mutex> lock(mu);
    const auto [lo, hi] = tokens.equal_range(job.idKey);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == job.token) {
        tokens.erase(it);
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
      tokens.clear();
    }
    publishDepth(0);
    errors.add(static_cast<std::uint64_t>(rest.size()));
    for (const Job& job : rest) {
      job.sink->write(
          errorResponse(job.request.id, "server is shutting down"));
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
      errors.add(1);
      sink->write(errorResponse(
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
    // The engine outlives this run; a stale hook would dangle.
    engine.setCancelHook(nullptr);
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

int Server::serveStream(std::istream& in, std::ostream& out) {
  ServerRun run(*this);
  auto sink = std::make_shared<StreamSink>(out);
  std::string line;
  while (!shutdownRequested() && !run.stopped() && std::getline(in, line)) {
    run.admitLine(line, sink);
  }
  run.finish();
  return 0;
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
