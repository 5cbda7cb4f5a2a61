#include "graph/distance_oracle.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "graph/dijkstra.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/env.h"
#include "util/parallel.h"

namespace msc::graph {

namespace {

constexpr std::size_t kObjectOverhead = 64;

std::int64_t steadyNowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void checkRadius(double radius) {
  if (!(radius >= 0.0)) {
    throw std::invalid_argument("DistanceOracle: row radius must be >= 0");
  }
}

}  // namespace

std::size_t oracleRowBytes(std::size_t n) noexcept {
  return n * sizeof(double) + kObjectOverhead;
}

std::size_t defaultOracleRowBudgetBytes() noexcept {
  const std::int64_t mb = util::envInt("MSC_ORACLE_ROWS_MB", 0);
  if (mb <= 0) return 0;
  return static_cast<std::size_t>(mb) * 1024 * 1024;
}

const char* distanceModeName(DistanceMode mode) noexcept {
  switch (mode) {
    case DistanceMode::Auto:
      return "auto";
    case DistanceMode::Dense:
      return "dense";
    case DistanceMode::PairCentric:
      return "pair_centric";
  }
  return "auto";
}

std::optional<DistanceMode> parseDistanceMode(std::string_view name) noexcept {
  if (name == "auto") return DistanceMode::Auto;
  if (name == "dense") return DistanceMode::Dense;
  if (name == "pair_centric") return DistanceMode::PairCentric;
  return std::nullopt;
}

DistanceMode resolveDistanceMode(DistanceMode mode, int nodeCount) noexcept {
  if (mode != DistanceMode::Auto) return mode;
  return nodeCount <= kDenseAutoNodeLimit ? DistanceMode::Dense
                                          : DistanceMode::PairCentric;
}

// ------------------------------------------------------ DistanceOracle ----

void DistanceOracle::checkNode(NodeId v) const {
  if (v < 0 || v >= nodeCount()) {
    throw std::out_of_range("DistanceOracle: node index out of range");
  }
}

// --------------------------------------------------- PairCentricOracle ----

PairCentricOracle::PairCentricOracle(std::shared_ptr<const Graph> graph)
    : PairCentricOracle(std::move(graph), Config{}) {}

PairCentricOracle::PairCentricOracle(std::shared_ptr<const Graph> graph,
                                     Config config)
    : graph_(std::move(graph)),
      threads_(config.threads),
      budget_(config.rowBudgetBytes) {
  if (!graph_) {
    throw std::invalid_argument("PairCentricOracle: null graph");
  }
}

PairCentricOracle::Row& PairCentricOracle::insertRowLocked(
    NodeId v, std::vector<double>&& dist, double radius) const {
  const auto [it, inserted] = rows_.emplace(v, Row{});
  Row& row = it->second;
  if (inserted) {
    const std::size_t bytes = oracleRowBytes(dist.size());
    rowCacheBytes_ += bytes;
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
  } else if (row.radius < radius) {
    // A wider rebuild of a cached row: same length, so the cache bytes are
    // unchanged; the old data may still back handed-out spans.
    bytes_.fetch_add(oracleRowBytes(dist.size()), std::memory_order_relaxed);
    retireLocked(std::move(row.data));
  }
  if (!row.data) {
    row.data = std::make_shared<const std::vector<double>>(std::move(dist));
    row.radius = radius;
  }
  row.touch = ++touchSeq_;
  return row;
}

void PairCentricOracle::retireLocked(
    std::shared_ptr<const std::vector<double>>&& data) const {
  if (budget_ == 0 || leases_.load(std::memory_order_acquire) > 0) {
    retired_.push_back(std::move(data));
  } else {
    bytes_.fetch_sub(oracleRowBytes(data->size()), std::memory_order_relaxed);
    data.reset();
  }
}

std::vector<std::vector<double>> PairCentricOracle::buildRows(
    std::span<const NodeId> sources, double radius, int threads) const {
  if (msc::obs::enabled()) {
    static auto& cRows = msc::obs::counter("oracle.row_builds");
    cRows.add(sources.size());
  }
  std::vector<std::vector<double>> rows(sources.size());
  std::vector<std::int64_t> buildNs(sources.size(), 0);
  const auto build = [&](std::size_t i) {
    const std::int64_t t0 = steadyNowNs();
    rows[i] = dijkstraBoundedDistances(*graph_, sources[i], radius);
    buildNs[i] = steadyNowNs() - t0;
  };
  // A single row runs inline: distancesWithin may be called from inside a
  // parallelFor chunk, where a nested parallelFor would throw.
  if (sources.size() == 1) {
    build(0);
  } else {
    msc::util::parallelForThreads(
        threads, 0, sources.size(), 1, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) build(i);
        });
  }
  static auto& hBuild = msc::obs::histogram("oracle.row_build_seconds");
  std::int64_t totalNs = 0;
  for (const std::int64_t ns : buildNs) {
    hBuild.record(static_cast<double>(ns) * 1e-9);
    totalNs += ns;
  }
  rowBuilds_.fetch_add(sources.size(), std::memory_order_relaxed);
  rowBuildNs_.fetch_add(static_cast<std::uint64_t>(totalNs),
                        std::memory_order_relaxed);
  if (auto* ctx = obs::currentRequest()) {
    auto& usage = ctx->oracle();
    usage.rowBuilds.fetch_add(sources.size(), std::memory_order_relaxed);
    usage.rowBuildNs.fetch_add(totalNs, std::memory_order_relaxed);
  }
  return rows;
}

void PairCentricOracle::enforceBudgetLocked(NodeId protect) const {
  if (budget_ == 0) return;
  std::uint64_t evicted = 0;
  while (rowCacheBytes_ > budget_) {
    // LRU victim among the rows other than the one the caller just
    // inserted/returned. Linear scan: under a budget the map holds
    // O(budget / rowBytes) entries, so this stays small by construction.
    auto victim = rows_.end();
    for (auto it = rows_.begin(); it != rows_.end(); ++it) {
      if (it->first == protect) continue;
      if (victim == rows_.end() || it->second.touch < victim->second.touch) {
        victim = it;
      }
    }
    if (victim == rows_.end()) break;  // only the protected row left
    rowCacheBytes_ -= oracleRowBytes(victim->second.data->size());
    // Spans handed out under a lease may point into this row: it stays
    // parked (still counted resident) until the last lease is released.
    retireLocked(std::move(victim->second.data));
    rows_.erase(victim);
    ++evicted;
  }
  if (evicted == 0) return;
  rowsEvicted_.fetch_add(evicted, std::memory_order_relaxed);
  if (auto* ctx = obs::currentRequest()) {
    ctx->oracle().rowsEvicted.fetch_add(evicted, std::memory_order_relaxed);
  }
  if (msc::obs::enabled()) {
    static auto& cEvict = msc::obs::counter("oracle.row_evictions");
    cEvict.add(evicted);
  }
  if (obs::trace::enabled()) {
    obs::trace::counter("oracle.rows_resident",
                        static_cast<double>(rows_.size()));
  }
}

std::shared_ptr<void> PairCentricOracle::acquireRowLease() const {
  if (budget_ == 0) return nullptr;  // unbounded: nothing is ever evicted
  leases_.fetch_add(1, std::memory_order_acq_rel);
  auto* self = const_cast<PairCentricOracle*>(this);
  return std::shared_ptr<void>(static_cast<void*>(self), [](void* p) {
    static_cast<const PairCentricOracle*>(p)->releaseRowLease();
  });
}

void PairCentricOracle::releaseRowLease() const {
  if (leases_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Last lease gone: free the parked rows. Re-check under the lock — a new
  // lease acquired meanwhile keeps them conservatively.
  std::vector<std::shared_ptr<const std::vector<double>>> drop;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (leases_.load(std::memory_order_acquire) == 0 && !retired_.empty()) {
      drop.swap(retired_);
      for (const auto& row : drop) {
        bytes_.fetch_sub(oracleRowBytes(row->size()),
                         std::memory_order_relaxed);
      }
    }
  }
}

double PairCentricOracle::distance(NodeId x, NodeId y) const {
  checkNode(x);
  checkNode(y);
  pointQueries_.fetch_add(1, std::memory_order_relaxed);
  if (auto* ctx = obs::currentRequest()) {
    ctx->oracle().pointQueries.fetch_add(1, std::memory_order_relaxed);
  }
  if (x == y) return 0.0;
  // Always the row of the smaller endpoint: the row of the larger one can
  // differ in the last ulp, so serving it would make the bits depend on
  // which rows happen to be cached. An entry beyond the row's radius is
  // not the distance, so it is searched for too.
  const NodeId s = std::min(x, y);
  const NodeId t = std::max(x, y);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = rows_.find(s); it != rows_.end()) {
      it->second.touch = ++touchSeq_;
      const double d = (*it->second.data)[static_cast<std::size_t>(t)];
      if (d <= it->second.radius) return d;
    }
  }
  altQueries_.fetch_add(1, std::memory_order_relaxed);
  if (auto* ctx = obs::currentRequest()) {
    ctx->oracle().altQueries.fetch_add(1, std::memory_order_relaxed);
  }
  if (msc::obs::enabled()) {
    static auto& cAlt = msc::obs::counter("oracle.alt_queries");
    cAlt.add(1);
  }
  // The row's own Dijkstra loop, stopped when t settles: bit-identical to
  // the full row's entry.
  return dijkstraDistance(*graph_, s, t);
}

std::span<const double> PairCentricOracle::distancesWithin(
    NodeId v, double radius) const {
  checkNode(v);
  checkRadius(radius);
  rowQueries_.fetch_add(1, std::memory_order_relaxed);
  auto* ctx = obs::currentRequest();
  if (ctx) {
    ctx->oracle().rowQueries.fetch_add(1, std::memory_order_relaxed);
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = rows_.find(v);
        it != rows_.end() && it->second.radius >= radius) {
      it->second.touch = ++touchSeq_;
      rowHits_.fetch_add(1, std::memory_order_relaxed);
      if (ctx) ctx->oracle().rowHits.fetch_add(1, std::memory_order_relaxed);
      return *it->second.data;
    }
  }
  auto built = buildRows(std::span<const NodeId>(&v, 1), radius, 1);
  const std::lock_guard<std::mutex> lock(mu_);
  const Row& row = insertRowLocked(v, std::move(built.front()), radius);
  enforceBudgetLocked(v);  // protects v: `row` stays valid
  return *row.data;
}

void PairCentricOracle::prefetchRowsWithin(std::span<const NodeId> sources,
                                           double radius, int threads) const {
  checkRadius(radius);
  std::vector<NodeId> need;
  need.reserve(sources.size());
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const NodeId v : sources) {
      checkNode(v);
      const auto it = rows_.find(v);
      if (it == rows_.end() || it->second.radius < radius) need.push_back(v);
    }
  }
  std::sort(need.begin(), need.end());
  need.erase(std::unique(need.begin(), need.end()), need.end());
  if (need.empty()) return;
  // A bulk build is a distance build (§14) — on every solve path the
  // instance's pair-node prefetch: the request's APSP phase, with one APSP
  // histogram sample per build. A prefetch of cached rows records nothing.
  static auto& buildHist = msc::obs::histogram("apsp.build_seconds");
  MSC_OBS_SPAN("apsp.run", buildHist, msc::obs::Phase::Apsp);
  auto built = buildRows(need, radius, threads);
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < need.size(); ++i) {
    insertRowLocked(need[i], std::move(built[i]), radius);
  }
  enforceBudgetLocked(need.back());
}

const DistanceMatrix& PairCentricOracle::materialize() const {
  const std::lock_guard<std::mutex> lock(fullMu_);
  if (!full_) {
    if (msc::obs::enabled()) {
      static auto& cMat = msc::obs::counter("oracle.materializations");
      cMat.add(1);
    }
    const auto n = static_cast<std::size_t>(graph_->nodeCount());
    auto built = std::make_unique<DistanceMatrix>(n, n);
    // Row v is the oracle's own row of v. Under a budget the lease keeps
    // each span valid until it is copied, even if another row evicts it.
    const auto lease = acquireRowLease();
    msc::util::parallelForThreads(
        threads_, 0, n, 1, [&](std::size_t begin, std::size_t end) {
          for (std::size_t v = begin; v < end; ++v) {
            const auto row = distancesFrom(static_cast<NodeId>(v));
            std::copy(row.begin(), row.end(), built->row(v));
          }
        });
    bytes_.fetch_add(n * n * sizeof(double) + kObjectOverhead,
                     std::memory_order_relaxed);
    full_ = std::move(built);
  }
  return *full_;
}

std::size_t PairCentricOracle::cachedRowCount() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return rows_.size();
}

OracleStats PairCentricOracle::stats() const {
  OracleStats s;
  s.pointQueries = pointQueries_.load(std::memory_order_relaxed);
  s.rowQueries = rowQueries_.load(std::memory_order_relaxed);
  s.rowBuilds = rowBuilds_.load(std::memory_order_relaxed);
  s.rowHits = rowHits_.load(std::memory_order_relaxed);
  s.altQueries = altQueries_.load(std::memory_order_relaxed);
  s.rowsEvicted = rowsEvicted_.load(std::memory_order_relaxed);
  s.rowBuildNs = rowBuildNs_.load(std::memory_order_relaxed);
  s.rowsResident = cachedRowCount();
  s.residentBytes = residentBytes();
  return s;
}

// -------------------------------------------------------------- factory ----

std::shared_ptr<const DistanceOracle> makeDistanceOracle(
    std::shared_ptr<const Graph> graph, DistanceMode /*mode*/,
    int /*landmarks*/, int threads, std::size_t rowBudgetBytes) {
  if (!graph) {
    throw std::invalid_argument("makeDistanceOracle: null graph");
  }
  return std::make_shared<const PairCentricOracle>(
      std::move(graph),
      PairCentricOracle::Config{.threads = threads,
                                .rowBudgetBytes = rowBudgetBytes});
}

}  // namespace msc::graph
