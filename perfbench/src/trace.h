// Tracing for the benchmark's traced run: coarse spans kept in memory, and
// per-thread aggregates for hot calls, plus the decorators that put both
// around the library's public seams (graph::DistanceOracle,
// core::IncrementalEvaluator, core::SetFunction).
//
// Decorators forward every call unchanged, so a decorated solve computes
// exactly what the undecorated one does; the traced run checks that its
// placements and values equal the served ones bit for bit.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/set_function.h"
#include "graph/distance_oracle.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the tracer's origin.
std::int64_t nowNs();

/// One coarse call: name, [start, end), the span that caused it, and the
/// replayed request it belongs to.
struct Span {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1;
  int request = -1;
};

class SpanLog {
 public:
  /// Opens a span under `parent` (-1 = root); returns its index.
  int open(std::string name, int parent, int request);
  void close(int index);
  /// Records an already-measured interval.
  int add(std::string name, std::int64_t startNs, std::int64_t endNs,
          int parent, int request);
  std::vector<Span> snapshot() const;
  /// Self time of span i: its duration minus the union of its children's
  /// intervals (clipped to it).
  static std::int64_t selfNs(const std::vector<Span>& spans, int i);
  /// Length of the union of the intervals of the descendants of `root`.
  static std::int64_t coveredNs(const std::vector<Span>& spans, int root);

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int parent, int request)
      : log_(log), index_(log.open(std::move(name), parent, request)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const noexcept { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

/// Count / total / max of one hot call, aggregated per thread so millions
/// of calls cost no memory and no shared cache line. Every call is counted;
/// one call in kSampleEvery per thread is timed, and the total is scaled
/// up from the timed ones, which keeps two clock reads off most calls.
/// The clock reads of a timed call fall inside its interval; their cost,
/// clockCostNs(), is subtracted in totals().
class HotStat {
 public:
  static constexpr std::uint64_t kSampleEvery = 16;
  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t timed = 0;
    double totalNs = 0.0;  // estimated over all calls
    std::int64_t maxNs = 0;  // over the timed calls
  };

  /// What an empty timed call measures: the median gap between two
  /// back-to-back clock reads, taken once per process.
  static std::int64_t clockCostNs();

  /// Runs `call`, counting it and timing it when its turn comes.
  template <typename F>
  auto measure(F&& call) {
    Slot& s = slot();
    if (s.count++ % kSampleEvery != 0) return call();
    const std::int64_t t0 = nowNs();
    auto result = call();
    const std::int64_t d = nowNs() - t0;
    ++s.timed;
    s.timedNs += d;
    if (d > s.maxNs) s.maxNs = d;
    return result;
  }
  Totals totals() const;

 private:
  static constexpr int kSlots = 64;
  struct alignas(64) Slot {
    std::uint64_t count = 0;
    std::uint64_t timed = 0;
    std::int64_t timedNs = 0;
    std::int64_t maxNs = 0;
  };
  Slot& slot();
  std::array<Slot, kSlots> slots_{};
};

/// Decorates a DistanceOracle: distancesFrom is a hot call, prefetchRows a
/// span; everything else forwards untimed.
class TracedOracle final : public msc::graph::DistanceOracle {
 public:
  TracedOracle(std::shared_ptr<const msc::graph::DistanceOracle> inner,
               SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  int nodeCount() const noexcept override { return inner_->nodeCount(); }
  double distance(msc::graph::NodeId x, msc::graph::NodeId y) const override {
    return inner_->distance(x, y);
  }
  std::span<const double> distancesFrom(msc::graph::NodeId v) const override;
  void prefetchRows(std::span<const msc::graph::NodeId> sources,
                    int threads) const override;
  const msc::graph::DistanceMatrix& materialize() const override {
    return inner_->materialize();
  }
  std::size_t residentBytes() const noexcept override {
    return inner_->residentBytes();
  }
  const char* mode() const noexcept override { return inner_->mode(); }
  msc::graph::OracleStats stats() const override { return inner_->stats(); }
  std::shared_ptr<void> acquireRowLease() const override {
    return inner_->acquireRowLease();
  }

  /// Spans opened by prefetchRows go under this parent / request.
  void setContext(int parent, int request) {
    parent_.store(parent);
    request_.store(request);
  }
  const HotStat& rowCalls() const noexcept { return rowCalls_; }
  /// Wall ns of prefetchRows bursts and the inner oracle's row-build ns
  /// accrued inside them.
  std::int64_t prefetchWallNs() const noexcept { return prefetchWallNs_.load(); }
  std::int64_t prefetchBuildNs() const noexcept { return prefetchBuildNs_.load(); }

 private:
  std::shared_ptr<const msc::graph::DistanceOracle> inner_;
  SpanLog& log_;
  std::atomic<int> parent_{-1};
  std::atomic<int> request_{-1};
  mutable HotStat rowCalls_;
  mutable std::atomic<std::int64_t> prefetchWallNs_{0};
  mutable std::atomic<std::int64_t> prefetchBuildNs_{0};
};

/// Decorates an evaluator that is both a SetFunction and an
/// IncrementalEvaluator (sigma, mu, nu, the MC evaluators). gainIfAdd is a
/// hot call; add, reset and value are spans.
class TracedEvaluator final : public msc::core::SetFunction,
                              public msc::core::IncrementalEvaluator {
 public:
  /// `layer` prefixes the span names ("core.sigma", "mc.hard", ...).
  TracedEvaluator(msc::core::IncrementalEvaluator& inc,
                  const msc::core::SetFunction& fn, std::string layer,
                  SpanLog& log, int parent, int request)
      : inc_(inc), fn_(fn), layer_(std::move(layer)), log_(log),
        parent_(parent), request_(request) {}

  double value(const msc::core::ShortcutList& placement) const override;
  std::string name() const override { return fn_.name(); }
  void reset() override;
  double currentValue() const override { return inc_.currentValue(); }
  double gainIfAdd(const msc::core::Shortcut& f) const override;
  void add(const msc::core::Shortcut& f) override;

  const HotStat& gains() const noexcept { return gains_; }
  const std::string& layer() const noexcept { return layer_; }

 private:
  msc::core::IncrementalEvaluator& inc_;
  const msc::core::SetFunction& fn_;
  std::string layer_;
  SpanLog& log_;
  int parent_;
  int request_;
  mutable HotStat gains_;
};

}  // namespace perfbench
