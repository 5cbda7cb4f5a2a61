#include "trace.h"

#include <algorithm>

namespace perfbench {

namespace {

const Clock::time_point kOrigin = Clock::now();

/// Small dense per-thread index for HotStat slots.
int threadSlot() {
  static std::atomic<int> next{0};
  thread_local const int slot = next.fetch_add(1);
  return slot;
}

/// Union length of [start, end) intervals.
std::int64_t unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t curStart = 0;
  std::int64_t curEnd = -1;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (!open || s > curEnd) {
      if (open) total += curEnd - curStart;
      curStart = s;
      curEnd = e;
      open = true;
    } else {
      curEnd = std::max(curEnd, e);
    }
  }
  if (open) total += curEnd - curStart;
  return total;
}

}  // namespace

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kOrigin)
      .count();
}

int SpanLog::open(std::string name, int parent, int request) {
  const std::int64_t start = nowNs();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start, start, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int index) {
  const std::int64_t end = nowNs();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].endNs = end;
}

int SpanLog::add(std::string name, std::int64_t startNs, std::int64_t endNs,
                 int parent, int request) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), startNs, endNs, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> SpanLog::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::int64_t SpanLog::selfNs(const std::vector<Span>& spans, int i) {
  const Span& s = spans[static_cast<std::size_t>(i)];
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
  for (const Span& c : spans) {
    if (c.parent != i) continue;
    children.emplace_back(std::max(c.startNs, s.startNs),
                          std::min(c.endNs, s.endNs));
  }
  return (s.endNs - s.startNs) - unionLength(std::move(children));
}

std::int64_t SpanLog::coveredNs(const std::vector<Span>& spans, int root) {
  const Span& r = spans[static_cast<std::size_t>(root)];
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // Walk up to see whether `root` is an ancestor.
    int p = spans[i].parent;
    while (p >= 0 && p != root) p = spans[static_cast<std::size_t>(p)].parent;
    if (p != root) continue;
    iv.emplace_back(std::max(spans[i].startNs, r.startNs),
                    std::min(spans[i].endNs, r.endNs));
  }
  return unionLength(std::move(iv));
}

HotStat::Slot& HotStat::slot() {
  return slots_[static_cast<std::size_t>(threadSlot() % kSlots)];
}

std::int64_t HotStat::clockCostNs() {
  static const std::int64_t cost = [] {
    std::vector<std::int64_t> gaps(20001);
    for (auto& g : gaps) {
      const std::int64_t t0 = nowNs();
      g = nowNs() - t0;
    }
    std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2, gaps.end());
    return gaps[gaps.size() / 2];
  }();
  return cost;
}

HotStat::Totals HotStat::totals() const {
  Totals t;
  std::int64_t timedNs = 0;
  for (const Slot& s : slots_) {
    t.count += s.count;
    t.timed += s.timed;
    timedNs += s.timedNs;
    t.maxNs = std::max(t.maxNs, s.maxNs);
  }
  const std::int64_t clock = clockCostNs();
  t.maxNs = std::max<std::int64_t>(0, t.maxNs - clock);
  if (t.timed > 0) {
    const auto netNs = std::max<std::int64_t>(
        0, timedNs - static_cast<std::int64_t>(t.timed) * clock);
    t.totalNs = static_cast<double>(netNs) * static_cast<double>(t.count) /
                static_cast<double>(t.timed);
  }
  return t;
}

std::span<const double> TracedOracle::distancesFrom(msc::graph::NodeId v) const {
  return rowCalls_.measure([&] { return inner_->distancesFrom(v); });
}

void TracedOracle::prefetchRows(std::span<const msc::graph::NodeId> sources,
                                int threads) const {
  const std::uint64_t buildBefore = inner_->stats().rowBuildNs;
  const std::int64_t t0 = nowNs();
  inner_->prefetchRows(sources, threads);
  const std::int64_t t1 = nowNs();
  const std::uint64_t buildAfter = inner_->stats().rowBuildNs;
  log_.add("graph.prefetch_rows", t0, t1, parent_.load(), request_.load());
  prefetchWallNs_ += t1 - t0;
  prefetchBuildNs_ += static_cast<std::int64_t>(buildAfter - buildBefore);
}

double TracedEvaluator::value(const msc::core::ShortcutList& placement) const {
  const ScopedSpan span(log_, layer_ + ".value", parent_, request_);
  return fn_.value(placement);
}

void TracedEvaluator::reset() {
  const ScopedSpan span(log_, layer_ + ".reset", parent_, request_);
  inc_.reset();
}

double TracedEvaluator::gainIfAdd(const msc::core::Shortcut& f) const {
  return gains_.measure([&] { return inc_.gainIfAdd(f); });
}

void TracedEvaluator::add(const msc::core::Shortcut& f) {
  const ScopedSpan span(log_, layer_ + ".commit", parent_, request_);
  inc_.add(f);
}

}  // namespace perfbench
