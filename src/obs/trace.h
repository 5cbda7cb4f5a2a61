// Trace-event timeline recorder: the "when did it happen" companion to the
// aggregate metrics registry (obs/metrics.h).
//
// Solvers and the thread pool emit begin/end/instant/counter events into
// per-thread ring buffers; an exporter (obs/trace_export.h) renders the
// collected timeline as Chrome trace-event JSON (loadable in Perfetto /
// chrome://tracing) or flat JSONL. Collection is disabled by default and
// costs one relaxed atomic load per guarded call site; enable it with
// `trace::setEnabled(true)` or by exporting `MSC_TRACE=1`.
//
// Design constraints, in order:
//   * Lock-light recording. Each thread writes only to its own buffer under
//     its own (uncontended) mutex; there is no global lock on the record
//     path after a thread's first event.
//   * Bounded memory. Buffers are fixed-capacity rings: once full, the
//     oldest event is overwritten and the buffer's drop counter increments,
//     so a long run keeps the *latest* window of activity and reports
//     exactly how much history it lost.
//   * Static names. Event and arg-key strings are `const char*` and must
//     outlive the trace — pass string literals, or intern() dynamic
//     strings into the process-lifetime arena. Events never own memory.
//
// Usage at an instrumentation site:
//
//   if (msc::obs::trace::enabled()) {
//     msc::obs::trace::instant("greedy.round",
//                              {{"round", r}, {"gain", g}});
//   }
//
// MSC_OBS_SPAN (obs/metrics.h) is layered on top: every span additionally
// emits a begin/end pair when tracing is enabled, so all existing
// instrumented scopes show up as timeline slices for free.
//
// Thread lanes: each recording thread is assigned a small sequential lane
// id (`tid` in the export) at first event. When a thread exits, its lane is
// parked and reused by the next new thread — ephemeral threads (e.g. serve
// connection threads) therefore share lanes over time instead of leaking
// one buffer each; events within a lane never interleave in time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <type_traits>
#include <vector>

namespace msc::obs::trace {

/// Global on/off switch (relaxed atomic; seeded from MSC_TRACE).
bool enabled() noexcept;
void setEnabled(bool on) noexcept;

enum class EventKind : std::uint8_t {
  Begin,    // opens a duration slice on this thread's lane
  End,      // closes the innermost open slice
  Instant,  // a point-in-time marker
  Counter,  // a sampled numeric value (rendered as a counter track)
};

/// One key=value event argument: numeric, or a static/interned string.
struct Arg {
  const char* key = nullptr;
  double num = 0.0;
  const char* str = nullptr;  // non-null => string-valued argument

  constexpr Arg() = default;
  template <typename T,
            typename = std::enable_if_t<std::is_arithmetic_v<T>>>
  constexpr Arg(const char* k, T v) : key(k), num(static_cast<double>(v)) {}
  /// `v` must have static storage duration (literal or intern()ed).
  constexpr Arg(const char* k, const char* v) : key(k), str(v) {}
};

/// Fixed-size POD event; the ring buffers are flat arrays of these.
struct Event {
  static constexpr int kMaxArgs = 6;

  std::int64_t tsNs = 0;  // steady-clock ns since epoch()
  const char* name = nullptr;
  EventKind kind = EventKind::Instant;
  std::uint8_t argCount = 0;
  /// Trace id of the request this event was recorded on behalf of
  /// (obs::RequestContext::traceId(), stamped from a thread-local set by
  /// setCurrentRequestId); 0 = not request-scoped. A dedicated field, not
  /// an Arg: events already using all kMaxArgs slots must still carry it.
  std::uint64_t req = 0;
  Arg args[kMaxArgs];
};

/// Copies `s` into the process-lifetime string arena (deduplicated) and
/// returns a stable pointer, suitable for Event/Arg fields and thread
/// names. Mutex-guarded; intern once and cache, not per event.
const char* intern(std::string_view s);

// ---- recording (all no-ops while disabled) ------------------------------
// Name/arg-key strings must have static storage duration (see above).

void begin(const char* name, std::initializer_list<Arg> args = {});
void end(const char* name);
/// begin()/end() stamped with a nowNs() reading the caller already took, so
/// a scope timed once (obs::ScopedSpan) draws its slice from that reading.
void beginAt(const char* name, std::int64_t tsNs);
void endAt(const char* name, std::int64_t tsNs);
void instant(const char* name, std::initializer_list<Arg> args = {});
void counter(const char* name, double value);

/// Labels the calling thread's lane in the export ("main", "pool.worker",
/// ...). Takes effect on the thread's next recorded event; safe to call
/// while tracing is disabled.
void setCurrentThreadName(const char* name);

/// Request id stamped into this thread's subsequent events (Event::req);
/// 0 clears it. Managed by obs::ScopedRequestBind — call sites rarely
/// touch this directly. A plain thread-local write, safe while disabled.
void setCurrentRequestId(std::uint64_t id) noexcept;
std::uint64_t currentRequestId() noexcept;

/// Nanoseconds on the trace clock (steady, shared epoch with Event::tsNs),
/// for callers that need timestamps comparable to recorded events.
std::int64_t nowNs() noexcept;

// ---- snapshot & management ----------------------------------------------

/// One thread lane's collected events, oldest first.
struct Lane {
  int tid = 0;
  const char* threadName = nullptr;  // null when never named
  std::uint64_t dropped = 0;         // events overwritten by ring wrap
  std::vector<Event> events;
};

struct Snapshot {
  std::vector<Lane> lanes;  // sorted by tid
  std::uint64_t droppedTotal = 0;
  /// Sum of events across lanes.
  std::size_t eventCount() const noexcept;
};

/// Copies every lane's current contents. Safe to call concurrently with
/// recording (each lane is locked in turn); the result is a consistent
/// per-lane prefix, not a global atomic cut.
Snapshot snapshot();

/// Drops all recorded events and zeroes every drop counter, keeping lanes
/// registered. Also applies a pending setBufferCapacity() to every lane.
void clearAll();

/// Sum of drop counters across all lanes.
std::uint64_t droppedEvents() noexcept;

/// One lane's drop counter, for per-lane monitoring exposition
/// (msc_trace_dropped_events_total{lane=...} in obs/prom_export.h).
struct LaneDropCount {
  int tid = 0;
  const char* threadName = nullptr;  // null when never named
  std::uint64_t dropped = 0;
};

/// Drop counters for every registered lane (including zero-drop lanes),
/// sorted by tid. Cheap: copies counters, never event payloads.
std::vector<LaneDropCount> laneDropCounts();

/// Per-thread ring capacity in events for lanes created afterwards (and for
/// existing lanes at the next clearAll()). Values < 1 clamp to 1. Defaults
/// to MSC_TRACE_BUFFER (events, default 16384).
void setBufferCapacity(std::size_t events);
std::size_t bufferCapacity() noexcept;

}  // namespace msc::obs::trace
