// Solver observability: a process-wide metrics registry with monotonic
// counters, gauges, Welford-backed value stats, and RAII scoped spans.
//
// Every algorithm hot path (sigma evaluation, Dijkstra, the greedy passes,
// the evolutionary loops) publishes operation counts here so that bench
// runs and the CLI can report *what the solver actually did* — not just
// wall clock. The registry is disabled by default and costs one relaxed
// atomic load per guarded call site; enable it programmatically via
// `setEnabled(true)` or by exporting `MSC_METRICS=1`.
//
// Usage at an instrumentation site:
//
//   if (msc::obs::enabled()) {
//     static auto& runs = msc::obs::counter("dijkstra.runs");
//     runs.add(1);
//   }
//   ...
//   MSC_OBS_SPAN("greedy.iteration");   // records span.greedy.iteration
//
// Counter/stat references are stable for the lifetime of the process: the
// registry is intentionally leaked and entries are never erased (reset()
// zeroes values but keeps registrations), so cached `static auto&` handles
// stay valid across resets.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

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
/// archive sizes, ...). Thread-safe via a per-stat mutex; record() is only
/// called on enabled paths, never in disabled-mode hot loops.
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
  /// The global registry. Constructed on first use with `enabled` seeded
  /// from the MSC_METRICS environment variable; intentionally leaked so
  /// handles stay valid during static destruction.
  static Registry& global();

  Registry();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void setEnabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

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
  /// Log-linear latency histogram (obs/histogram.h). Unlike counters and
  /// stats, histogram record() sites are NOT gated on enabled(): recording
  /// is a few relaxed atomic ops into bounded storage, cheap enough for
  /// service hot paths that need tail latency visible at all times.
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
  std::atomic<bool> enabled_{false};
};

/// Shorthands against the global registry.
inline bool enabled() noexcept { return Registry::global().enabled(); }
inline void setEnabled(bool on) noexcept { Registry::global().setEnabled(on); }
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

/// RAII span: when metrics are enabled at construction, records the scope's
/// wall duration (seconds) into stat "span.<name>"; when tracing
/// (obs/trace.h) is enabled, additionally emits a begin/end event pair on
/// the current thread's timeline lane. Tracks nesting depth for the
/// current thread while either backend is on. A fully disabled span is two
/// relaxed loads and no clock reads.
///
/// `name` must have static storage duration (pass a string literal) — the
/// trace backend stores the pointer, not a copy.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Nesting depth of currently-open *enabled* spans on this thread.
  static int depth() noexcept;

 private:
  Stat* stat_ = nullptr;            // null when metrics are off
  const char* traceName_ = nullptr; // null when tracing is off
  std::chrono::steady_clock::time_point start_{};
};

#define MSC_OBS_CONCAT_INNER(a, b) a##b
#define MSC_OBS_CONCAT(a, b) MSC_OBS_CONCAT_INNER(a, b)
/// Opens a ScopedSpan for the rest of the enclosing scope.
#define MSC_OBS_SPAN(name) \
  ::msc::obs::ScopedSpan MSC_OBS_CONCAT(mscObsSpan_, __LINE__)(name)

}  // namespace msc::obs
