// msc.serve.v1 — line-delimited JSON request/response schema for the solve
// service (serve/server.h).
//
// A request is one JSON object per line:
//
//   {"id": 7, "cmd": "solve", "graph": "g", "pairs": "p",
//    "p_t": 0.14, "algo": "greedy", "k": 3, "threads": 4, "seed": 1}
//
// Commands: load_graph, load_pairs, solve, eval, stats, metrics, health,
// sleep, cancel, shutdown (sleep is a testing aid for exercising queue
// backpressure; `metrics` returns the Prometheus text exposition;
// `health` and `cancel` are answered out-of-band of the admission
// queue — see docs/ALGORITHMS.md §12/§13/§18 for the full field tables). Every response is one
// JSON object per line that echoes the request "id" verbatim and always
// carries "schema", "status" ("ok" | "error" | "overloaded" |
// "cancelled" | "deadline_exceeded"), "wall_seconds" and "gain_evals".
// A "cancelled"/"deadline_exceeded" reply is an anytime result: it
// carries the best-so-far fields of the command (placement, value, bound
// gap) computed from the completed-round prefix:
//
//   {"schema": "msc.serve.v1", "id": 7, "status": "ok", "cmd": "solve",
//    "placement": "3-41,17-88", "value": 6, "apsp_cache": "hit",
//    "wall_seconds": 0.004, "gain_evals": 5310, "usage": {...}}
//
// Every status:"ok" response additionally carries a "usage" object with
// per-request attribution (docs/ALGORITHMS.md §14): gain_evals,
// cpu_seconds summed across all participating threads, and a "phases"
// object (queue_wait / apsp / round_scan / other wall seconds). Any
// request may set `"profile": true` (boolean) to force a flight-recorder
// trace dump; the dump's path comes back as usage.trace_file.
//
// Malformed input — bad JSON, a non-object, unknown or missing cmd, wrong
// field types — is answered with a status:"error" response carrying a
// human-readable "error" message; it never crashes the server or closes the
// stream.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/types.h"
#include "serve/json.h"

namespace msc::serve {

inline constexpr const char* kSchemaVersion = "msc.serve.v1";

/// Raised by request parsing/validation; the message becomes the "error"
/// field of a status:"error" response. Carries the request id when it was
/// already parsed out, so even a request with a bad "cmd" gets its id
/// echoed back.
struct ProtocolError : std::runtime_error {
  explicit ProtocolError(const std::string& what, json::Value requestId = nullptr)
      : std::runtime_error(what), id(std::move(requestId)) {}
  json::Value id;
};

enum class Command {
  LoadGraph,
  LoadPairs,
  Solve,
  Eval,
  Stats,
  Metrics,
  Health,
  Sleep,
  Cancel,
  Shutdown,
};

/// Wire name of a command ("load_graph", ...).
const char* commandName(Command cmd);

struct Request {
  json::Value id;      // echoed verbatim; null when the client sent none
  Command cmd = Command::Stats;
  json::Object params; // the whole request object (cmd/id included)
};

/// Parses one request line. Throws ProtocolError on malformed JSON, a
/// non-object document, a missing/unknown "cmd", or an "id" that is not a
/// scalar (string/number/null).
Request parseRequest(const std::string& line);

// ---- response rendering (always single-line JSON + '\n'-free) ----------

/// status:"ok" response: schema + echoed id + cmd + wall/gain-eval counts
/// + the command-specific `fields`.
std::string okResponse(const json::Value& id, Command cmd,
                       json::Object fields, double wallSeconds,
                       std::uint64_t gainEvals);

/// Like okResponse but with an explicit status string — used for the
/// anytime "cancelled" / "deadline_exceeded" replies, which carry the same
/// command-specific fields as an ok reply (best-so-far placement, value,
/// bound gap) under a different status.
std::string statusResponse(const json::Value& id, Command cmd,
                           json::Object fields, const char* status,
                           double wallSeconds, std::uint64_t gainEvals);

/// status:"error" response with a message.
std::string errorResponse(const json::Value& id, const std::string& message,
                          double wallSeconds = 0.0);

/// status:"overloaded" response emitted by the admission queue.
std::string overloadedResponse(const json::Value& id, std::size_t queueDepth,
                               std::size_t queueLimit);

// ---- typed parameter access (throws ProtocolError naming the field) -----

const json::Value* findParam(const Request& req, const char* key);
std::string requireStringParam(const Request& req, const char* key);
std::string getStringParam(const Request& req, const char* key,
                           const std::string& fallback);
double getNumberParam(const Request& req, const char* key, double fallback);
/// Number that must be integral (no fractional part) and in [min, max].
long long getIntParam(const Request& req, const char* key, long long fallback,
                      long long min, long long max);
bool getBoolParam(const Request& req, const char* key, bool fallback);

// ---- placement specs ----------------------------------------------------

/// Parses the CLI placement syntax "a-b,c-d,..." (same format `msc_cli
/// solve` prints and `--placement` accepts). Throws ProtocolError.
core::ShortcutList parsePlacementSpec(const std::string& spec);

/// Renders a placement back to "a-b,c-d,..." ("" for empty).
std::string placementSpec(const core::ShortcutList& placement);

// ---- pair lists ---------------------------------------------------------

/// Parses a pairs file: one "u w" pair per line; blank lines and lines
/// starting with '#' are skipped, and a pair may be followed only by a
/// '#' comment. Shared by `load_pairs` and `msc_cli --pairs`. Throws
/// ProtocolError naming the first malformed line.
std::vector<core::SocialPair> parsePairsText(const std::string& text);

}  // namespace msc::serve
