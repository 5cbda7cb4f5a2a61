// Solver observability: a process-wide metrics registry with monotonic
// counters, gauges, Welford-backed value stats, and RAII scoped spans.
//
// Every algorithm hot path (sigma evaluation, Dijkstra, the greedy passes,
// the evolutionary loops) publishes operation counts here so that bench
// runs and the CLI can report *what the solver actually did* — not just
// wall clock. Every series always records: a counter add is one relaxed
// atomic on a handle the call site looked up once. MSC_METRICS=1 only asks
// the bench binaries and msc_cli to print the registry as a text footer at
// exit (eval/report.h).
//
// Usage at an instrumentation site:
//
//   static auto& runs = msc::obs::counter("dijkstra.runs");
//   runs.add(1);
//   ...
//   MSC_OBS_SPAN("greedy.pass");   // records span.greedy.pass
//   static auto& scanHist = msc::obs::histogram("greedy.round_scan_seconds");
//   const msc::obs::ScopedSpan scan("greedy.round_scan", scanHist,
//                                   msc::obs::Phase::RoundScan);
//                 // one reading feeds the histogram and the bound
//                 // request's round_scan phase; no span.* stat
//
// Counter/stat references are stable for the lifetime of the process: the
// registry is intentionally leaked and entries are never erased (reset()
// zeroes values but keeps registrations), so cached `static auto&` handles
// stay valid across resets.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/context.h"
#include "obs/histogram.h"
#include "util/stats.h"

namespace msc::obs {

/// Monotonic event counter. Thread-safe (relaxed atomic).
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous value (a queue depth, resident bytes, a last-seen rate).
/// Thread-safe (relaxed atomic).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Welford accumulator over recorded samples (span durations in seconds,
/// archive sizes, ...). Thread-safe via a per-stat mutex, so record() sits
/// at most once per pass, run or job, never inside a gain-scan loop.
class Stat {
 public:
  void record(double x) {
    const std::lock_guard<std::mutex> lock(mu_);
    stats_.push(x);
  }
  /// Copy of the current accumulator state.
  util::RunningStats snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    stats_ = util::RunningStats();
  }

 private:
  mutable std::mutex mu_;
  util::RunningStats stats_;
};

enum class MetricType { Counter, Gauge };

/// One counter or gauge series of a snapshot.
struct Sample {
  std::string name;    ///< registry name, e.g. "serve.cancellations"
  std::string labels;  ///< fixed label set, e.g. `reason="client"`; "" if none
  MetricType type = MetricType::Counter;
  std::string help;    ///< "" renders as "msc <type> <name>"
  double value = 0.0;

  /// `name`, or `name{labels}` when labeled: the key the JSON surfaces use.
  std::string key() const;
};

struct StatRow {
  std::string name;
  util::RunningStats stats;
};
struct HistogramRow {
  std::string name;
  HistogramSnapshot snapshot;
};

/// Point-in-time copy of every series the exporters render: the Prometheus
/// page, msc.metrics.v1 and the serve `stats` reply all read one of these,
/// so no two surfaces can disagree.
struct Snapshot {
  std::vector<Sample> samples;  ///< counters and gauges, by (name, labels)
  std::vector<StatRow> stats;   ///< by name
  std::vector<HistogramRow> histograms;  ///< by name

  /// Adds series from another source, keeping `samples` ordered.
  void addSamples(std::vector<Sample> more);
  /// The series `name{labels}`, or null when it is not registered.
  const Sample* find(std::string_view name,
                     std::string_view labels = {}) const;
};

/// Registry of named counters, gauges and stats. The process-wide one is
/// global(); the serve engine owns another for its per-engine series.
/// Lookup allocates on first use of a (name, labels) series and is
/// mutex-guarded; hot call sites cache the returned reference.
class Registry {
 public:
  /// The global registry. Constructed on first use; intentionally leaked
  /// so handles stay valid during static destruction.
  static Registry& global();

  /// The series `name{labels}`, registered at zero on first use. `labels`
  /// is a fixed Prometheus label body (`kind="row"`); register every value
  /// of a label up front so each appears from the first scrape. `help`
  /// belongs to the name: the first non-empty one given for it is kept.
  Counter& counter(std::string_view name, std::string_view labels = {},
                   std::string_view help = {}) {
    return series(name, labels, help, MetricType::Counter).counter;
  }
  Gauge& gauge(std::string_view name, std::string_view labels = {},
               std::string_view help = {}) {
    return series(name, labels, help, MetricType::Gauge).gauge;
  }
  Stat& stat(std::string_view name);
  /// Log-linear latency histogram (obs/histogram.h): recording is a few
  /// relaxed atomic ops into bounded storage.
  Histogram& histogram(std::string_view name);

  /// Zeroes every series but keeps all registrations (and thus all
  /// outstanding references) valid.
  void reset();

  Snapshot snapshot() const;

 private:
  struct Series {
    std::string name, labels;
    MetricType type = MetricType::Counter;
    Counter counter;
    Gauge gauge;
  };
  Series& series(std::string_view name, std::string_view labels,
                 std::string_view help, MetricType type);

  mutable std::mutex mu_;
  std::map<std::string, Series, std::less<>> series_;  // by Sample::key()
  std::map<std::string, std::string, std::less<>> help_;  // by name
  std::map<std::string, Stat, std::less<>> stats_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Shorthands against the global registry.
inline Counter& counter(std::string_view name, std::string_view labels = {},
                        std::string_view help = {}) {
  return Registry::global().counter(name, labels, help);
}
inline Gauge& gauge(std::string_view name, std::string_view labels = {},
                    std::string_view help = {}) {
  return Registry::global().gauge(name, labels, help);
}
inline Stat& stat(std::string_view name) {
  return Registry::global().stat(name);
}
inline Histogram& histogram(std::string_view name) {
  return Registry::global().histogram(name);
}
inline void resetAll() { Registry::global().reset(); }

/// RAII span, the one scoped timer: every consumer of a timed interval
/// reads the same clock pair. It records the scope's wall duration
/// (seconds) into one sink, a value stat or a histogram; when tracing
/// (obs/trace.h) is enabled it also emits a begin/end slice on the current
/// thread's timeline lane. A span that names a phase also charges it to the
/// RequestContext bound at construction (obs/context.h). MSC_OBS_SPAN is
/// the stat form; a span with a histogram is declared directly, and then
/// registers no "span.<name>" stat.
///
/// `name` must have static storage duration (pass a string literal) — the
/// trace backend stores the pointer, not a copy.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Stat& stat);
  ScopedSpan(const char* name, Stat& stat, Phase phase);
  ScopedSpan(const char* name, Histogram& histogram);
  ScopedSpan(const char* name, Histogram& histogram, Phase phase);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span now, before its scope does, and returns the seconds its
  /// sink, slice and phase got; the destructor then records nothing.
  /// Idempotent: a later call returns the same reading.
  double close() noexcept;

  /// Nesting depth of currently-open spans on this thread.
  static int depth() noexcept;

 private:
  ScopedSpan(const char* name, Stat* stat, Histogram* histogram,
             RequestContext* request, Phase phase);

  Stat* stat_ = nullptr;               // exactly one of stat_ and
  Histogram* histogram_ = nullptr;     // histogram_ is set
  const char* traceName_ = nullptr;    // null when tracing is off
  RequestContext* request_ = nullptr;  // null without a phase or a binding
  Phase phase_;
  std::int64_t startNs_ = 0;  // trace::nowNs() at construction
  std::int64_t ns_ = -1;      // the duration once closed, -1 while open
};

#define MSC_OBS_CONCAT_INNER(a, b) a##b
#define MSC_OBS_CONCAT(a, b) MSC_OBS_CONCAT_INNER(a, b)
/// Opens a ScopedSpan for the rest of the enclosing scope that records into
/// stat "span.<name>", looked up once per call site. `name` is a string
/// literal; an optional second argument names a request phase.
#define MSC_OBS_SPAN(name, ...)                                          \
  static ::msc::obs::Stat& MSC_OBS_CONCAT(mscObsSpanStat_, __LINE__) =   \
      ::msc::obs::stat("span." name);                                    \
  const ::msc::obs::ScopedSpan MSC_OBS_CONCAT(mscObsSpan_, __LINE__)(    \
      name, MSC_OBS_CONCAT(mscObsSpanStat_, __LINE__)                    \
                __VA_OPT__(, ) __VA_ARGS__)

}  // namespace msc::obs
