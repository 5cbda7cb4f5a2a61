// Long-running MSC solve service: request execution engine + front ends.
//
// Layering (docs/ALGORITHMS.md §12):
//
//   Engine  — executes one parsed msc.serve.v1 request against the shared
//             InstanceCache and the existing solver entry points. Thread-
//             safe and deterministic: a solve through the engine is
//             bit-identical to the direct CLI path at equal
//             {algo, k, threads, seed}, and to any serial replay of the
//             same request set (content-addressed cache keys make replies
//             independent of interleaving).
//   Server  — owns one Engine, a BOUNDED admission queue and one executor
//             thread. Front ends (JSONL over a pair of file descriptors —
//             stdin/stdout in the CLI — or a Unix-domain socket accepting
//             concurrent connections) parse lines and admit them; when the
//             queue is full the request is answered `status:"overloaded"`
//             immediately instead of growing the queue — backpressure the
//             client can see. The executor drains FIFO, so responses to
//             admitted requests preserve admission order per connection.
//             Commands the protocol's table marks out-of-band (`health`,
//             `cancel`) are answered on the reader thread, never queued.
//
// One request lifecycle: Engine::handle runs every request through one
// RAII lifecycle (server.cpp) that owns its request context, cancel token,
// deadline and progress reporter, calls the command's handler (looked up by
// Command in a table; every handler takes the request and its context and
// returns the reply fields) and then finalizes it the same way for ok and
// error replies: wall time, flight record, latency histograms, oracle
// totals, one log line. The engine holds the one cancel registry: a
// CancelTicket keeps a token in it for as long as the request is queued or
// executing, so `cancel` reaches both. Every error reply, the Server's
// reader-side rejections included, goes through Engine::errorReply.
//
// Shutdown: a `shutdown` request, EOF on the input, or
// Server::requestShutdown() (async-signal-safe; wire it to SIGINT/SIGTERM)
// all stop admission, drain every already-admitted request, then return.
// Requests that arrive after a shutdown request are answered with a
// structured "server is shutting down" error, never silently dropped.
//
// Observability: each request runs under span.serve.request plus its
// command's span, counts into the engine's own registry (requests, errors,
// slow requests, cancellations, overload rejections, oracle work) and the
// queue depth is a "serve.queue_depth" trace counter track. `stats`,
// `metrics` and GET /metrics all render one Engine::snapshot(). On top of
// that (docs/ALGORITHMS.md §13): latency histograms
// ("serve.request_seconds", "serve.queue_wait_seconds"), Prometheus text
// via `metrics` or a plain-HTTP listener (startMetricsHttp,
// `msc_cli serve --metrics-listen PORT`), one JSONL log line per request
// (obs/log.h, MSC_LOG=info), and a `health` readiness probe that reports
// ready:false while draining, mirrored as HTTP 200/503 on GET /healthz.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "serve/instance_cache.h"
#include "serve/protocol.h"
#include "util/cancel.h"

namespace msc::obs {
class RequestContext;
}  // namespace msc::obs

namespace msc::serve {

/// MSC_SERVE_CACHE_MB (default 256) in bytes.
std::size_t defaultCacheBytes();

struct EngineConfig {
  /// Instance-cache byte budget; 0 disables eviction.
  std::size_t cacheBytes = defaultCacheBytes();
  /// Worker threads for requests that omit "threads" (0 = all cores).
  int defaultThreads = 1;
  /// Row-cache byte budget per pair-centric oracle (0 = unbounded);
  /// defaults to the MSC_ORACLE_ROWS_MB knob (`serve --oracle-rows-mb`).
  /// Evicted rows re-materialize bit-identically, so solve responses never
  /// depend on it.
  std::size_t oracleRowBytes = msc::graph::defaultOracleRowBudgetBytes();
};

class Engine {
 public:
  using Notify = std::function<void(const std::string&)>;

  /// A cancel token held in the engine's one cancel registry for as long
  /// as the ticket lives (server.cpp; the Server takes one per admitted
  /// job).
  class CancelTicket;

  explicit Engine(EngineConfig config = {});

  /// Parses and executes one request line. Never throws: malformed input
  /// and execution failures come back as status:"error" responses.
  std::string handleLine(const std::string& line);

  /// Executes an already-parsed request. Never throws. `queueWaitSeconds`
  /// is how long the request sat in the admission queue (0 when executed
  /// directly); it feeds the serve.queue_wait_seconds histogram and the
  /// per-request log line.
  ///
  /// Live introspection (docs/ALGORITHMS.md §18): when the request carries
  /// a `"progress"` object, `notify` (if non-null) receives one rendered
  /// `{"event":"progress",...}` line per emitted snapshot, from the solver
  /// thread, before the final response line is returned. A non-null
  /// `cancel` is the caller's token, already in the cancel registry under
  /// a CancelTicket (the Server takes one per job at admission, so
  /// `cancel` reaches requests still in the queue); when null the engine
  /// makes and registers a token of its own for the request's duration. A
  /// `"deadline_seconds"` parameter arms the token with the remaining
  /// budget (deadline minus queue wait); a fired token turns the reply into
  /// an anytime result with status "cancelled" / "deadline_exceeded".
  std::string handle(const Request& request, double queueWaitSeconds = 0.0,
                     const Notify* notify = nullptr,
                     util::CancelToken* cancel = nullptr);

  /// The one error writer: counts serve.errors and renders the
  /// status:"error" reply. Engine failures and the Server's reader-side
  /// rejections (parse error, over-long line, shutting down) all use it.
  std::string errorReply(const json::Value& id, const std::string& message,
                         double wallSeconds = 0.0);

  /// True once a shutdown request has been executed.
  bool shutdownRequested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  InstanceCache& cache() noexcept { return cache_; }
  const EngineConfig& config() const noexcept { return config_; }

  /// Extra readiness condition ANDed into `health` replies (the Server
  /// wires the process-wide shutdown flag in). Set before serving traffic.
  void setReadyHook(std::function<bool()> hook) {
    readyHook_ = std::move(hook);
  }

  /// Readiness as `health` reports it: false once shutdown was requested
  /// (draining) or the ready hook vetoes.
  bool ready() const;

  /// This engine's series (requests, errors, cancellations, queue gauges,
  /// oracle totals). The Server counts its overloads and queue depth here.
  obs::Registry& metrics() noexcept { return metrics_; }

  /// One reading of every serve-level number: the global registry, this
  /// engine's series and the instance cache's counters and gauges. `stats`
  /// and metricsText() both render it (docs/ALGORITHMS.md §13).
  obs::Snapshot snapshot() const;

  /// Prometheus text exposition of snapshot(), for the `metrics` command
  /// and the GET /metrics endpoint.
  std::string metricsText() const;

 private:
  class Lifecycle;
  /// Every command handler: the request in, its reply fields out. Gain
  /// evaluations and the APSP cache outcome go on the context.
  using Handler = json::Object (Engine::*)(const Request&,
                                           obs::RequestContext&);
  json::Object cmdLoadGraph(const Request& request, obs::RequestContext&);
  json::Object cmdLoadPairs(const Request& request, obs::RequestContext&);
  json::Object cmdSolve(const Request& request, obs::RequestContext& ctx);
  json::Object cmdEval(const Request& request, obs::RequestContext& ctx);
  json::Object cmdStats(const Request&, obs::RequestContext&);
  json::Object cmdMetrics(const Request&, obs::RequestContext&);
  json::Object cmdHealth(const Request&, obs::RequestContext&);
  json::Object cmdSleep(const Request& request, obs::RequestContext& ctx);
  json::Object cmdCancel(const Request& request, obs::RequestContext&);
  json::Object cmdShutdown(const Request&, obs::RequestContext&);
  /// Resolves a client-supplied graph/pairs reference: an alias registered
  /// via load_*'s "as" field, or a raw content key.
  std::string resolveKey(const std::string& ref);
  /// Registers load_*'s optional "as" alias for `key`, echoed in `fields`.
  void registerAlias(const Request& request, const std::string& key,
                     json::Object& fields);

  EngineConfig config_;
  InstanceCache cache_;
  std::atomic<bool> shutdown_{false};
  obs::Registry metrics_;
  // Handles into metrics_, registered at zero by the constructor.
  obs::Counter& requests_;
  obs::Counter& errors_;
  obs::Counter& slowRequests_;
  obs::Counter& cancelledClient_;
  obs::Counter& cancelledDeadline_;
  obs::Gauge& executing_;
  /// usage.oracle totals, folded in as each request finishes.
  std::array<obs::Counter*, 6> oracleTotals_{};
  std::function<bool()> readyHook_;
  std::chrono::steady_clock::time_point start_;
  mutable std::mutex aliasMu_;
  std::map<std::string, std::string> aliases_;
  /// The cancel registry: one entry per live CancelTicket.
  std::mutex cancelMu_;
  std::multimap<std::string, util::CancelToken*> cancelTokens_;
};

struct ServerConfig {
  EngineConfig engine;
  /// Pending (admitted, not yet executing) requests before new ones are
  /// answered status:"overloaded".
  std::size_t queueLimit = 64;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// JSONL loop over raw file descriptors (poll-based reader, reacts to
  /// shutdown within ~200 ms even while idle). Blocks until EOF, a
  /// shutdown request, or requestShutdown(); drains admitted requests
  /// before returning. Returns 0 on clean shutdown. The CLI's stdio front
  /// end is serveFd(0, 1).
  int serveFd(int inFd, int outFd);

  /// Unix-domain-socket front end: binds `path` (an existing socket file
  /// is replaced), accepts any number of concurrent connections, shares
  /// the one admission queue + executor across them. Returns 0 on clean
  /// shutdown, throws std::runtime_error when the socket cannot be set up.
  int serveUnixSocket(const std::string& path);

  /// Starts a plain-HTTP telemetry listener on 127.0.0.1:`port` (0 picks an
  /// ephemeral port) running on its own thread beside any serve front end:
  ///   GET /metrics -> 200, Prometheus text exposition of the registry
  ///   GET /healthz -> 200 "ok" while ready, 503 "draining" afterwards
  /// Returns the bound port; throws std::runtime_error on bind failure.
  /// Keeps answering while the server drains; stopped (thread joined,
  /// socket closed) by stopMetricsHttp() or the destructor.
  int startMetricsHttp(int port);
  void stopMetricsHttp();

  Engine& engine() noexcept { return engine_; }
  const ServerConfig& config() const noexcept { return config_; }

  /// Async-signal-safe global stop flag shared by every Server in the
  /// process: an atomic store, suitable for direct use in a SIGINT/SIGTERM
  /// handler. Serving loops notice it, stop admitting, drain and return.
  static void requestShutdown() noexcept;
  static bool shutdownRequested() noexcept;
  /// Re-arms after a handled shutdown (tests run many servers per process).
  static void clearShutdownFlag() noexcept;

 private:
  friend struct ServerRun;  // per-front-end queue/executor machinery (.cpp)

  /// Answers one already-accepted telemetry HTTP connection (no keep-alive).
  void serveOneMetricsHttpConn(int conn);

  ServerConfig config_;
  Engine engine_;
  std::atomic<bool> metricsHttpStop_{false};
  int metricsHttpFd_ = -1;
  std::thread metricsHttpThread_;
};

}  // namespace msc::serve
