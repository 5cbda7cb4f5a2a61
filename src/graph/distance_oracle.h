// Distance oracle: base-graph shortest-path distances as a row cache.
//
// Every MSC evaluator consumes base-graph shortest-path distances, but none
// of them needs all n^2 of them: sigma/mu/nu only ever read distances from
// the m social-pair endpoints (and the endpoints of placed shortcuts) to
// the rest of the graph. So the distance layer is one row cache,
// PairCentricOracle: it stores one Dijkstra row per requested source,
// computed on demand. Constructing one builds no rows.
//
// Row radii (docs/ALGORITHMS.md §15). Every row carries the radius it was
// built to: a row of radius r comes from a Dijkstra bounded at r, so every
// entry <= r is bit-identical to the full row's entry (lengths are >= 0,
// so a node's distance is a min over predecessors settled no later than
// it) and every entry above r reads kInfDist. A cached row of radius >= r
// serves a request at r; a request above the cached radius rebuilds the
// row and parks the superseded data (see eviction below), so spans handed
// out earlier stay valid. distancesFrom / prefetchRows ask for radius +inf
// (full rows); the MSC objectives only ever test whether a sum of row
// entries is <= d_t, and since fl(x + y) >= x for y >= 0 an entry above
// d_t may read +inf without changing any such predicate, so the
// Instance asks for its rows at radius d_t.
//
// There is one source of bits: a row entry within the row's radius is
// always the raw Dijkstra result from its source, and distance(x, y) is
// always the entry of row min(x, y) — read from the cache when that row is
// resident and the entry lies within its radius, recomputed otherwise by
// dijkstraDistance (graph/dijkstra.h), the same Dijkstra loop with a
// target exit, which caches nothing. No value depends on what happens to
// be cached.
//
// Telemetry (docs/ALGORITHMS.md §16): the oracle self-measures its query
// mix — point vs row queries, lazy-row builds vs hits, point queries
// answered by a search, evictions — through relaxed atomics that are
// always on. stats() snapshots them. None of it changes what the solvers
// compute: instrumentation never touches the distance values.
//
// Row eviction (MSC_ORACLE_ROWS_MB): the oracle can run under a row cache
// budget. When set, cached rows are evicted least-recently-touched-first;
// the row just inserted is never the victim. Re-materializing an evicted
// row re-runs the identical deterministic Dijkstra, so values are
// bit-identical across evictions.
// Span safety under eviction is lease-based: acquireRowLease() returns a
// token; while any token is alive, evicted rows are parked (still counted
// in residentBytes) instead of freed, so previously returned spans stay
// valid. Instance holds a lease for its lifetime, which covers every
// evaluator in the tree. Without a budget (the default) nothing is ever
// evicted and spans simply live as long as the oracle: rows superseded by
// a wider rebuild are parked until the oracle goes away.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "graph/apsp.h"
#include "graph/graph.h"

namespace msc::graph {

/// Serve load_graph's "distance_mode" knob: the candidate universe of
/// later solves on the graph (src/serve). It does not pick row residency:
/// every oracle builds its rows on demand.
enum class DistanceMode {
  Auto,         ///< Dense when n <= kDenseAutoNodeLimit, PairCentric above
  Dense,        ///< all n(n-1)/2 node pairs
  PairCentric,  ///< pairs of pair nodes only
};

/// Auto ranges over all node pairs up to this node count: the all-pairs
/// candidate list of 2048 nodes holds about 2.1M shortcuts, and the next
/// power of two quadruples it.
inline constexpr int kDenseAutoNodeLimit = 2048;

/// Stable wire/display name: "auto", "dense", "pair_centric".
const char* distanceModeName(DistanceMode mode) noexcept;

/// Inverse of distanceModeName; nullopt on unknown names.
std::optional<DistanceMode> parseDistanceMode(std::string_view name) noexcept;

/// Resolves Auto by the static node-count rule (Dense iff
/// n <= kDenseAutoNodeLimit); Dense and PairCentric pass through.
DistanceMode resolveDistanceMode(DistanceMode mode, int nodeCount) noexcept;

/// Row-cache budget in bytes from MSC_ORACLE_ROWS_MB (<= 0 or unset means
/// 0 = unbounded, the historical behavior). Read once per call — callers
/// that want a stable value capture it in their config.
std::size_t defaultOracleRowBudgetBytes() noexcept;

/// Charged bytes of one cached distance row of `n` entries (the unit both
/// the row budget and residentBytes() count in).
std::size_t oracleRowBytes(std::size_t n) noexcept;

/// One consistent snapshot of an oracle's self-measurements: monotonic
/// counters since construction plus current residency. The serve
/// stats/metrics exporters and the benchmark read this.
struct OracleStats {
  std::uint64_t pointQueries = 0;    ///< distance(x, y) calls
  std::uint64_t rowQueries = 0;      ///< distancesFrom(v) calls
  std::uint64_t rowBuilds = 0;       ///< lazy Dijkstra row materializations
  std::uint64_t rowHits = 0;         ///< distancesFrom served from cache
  std::uint64_t altQueries = 0;      ///< point queries answered by a search
  std::uint64_t rowsEvicted = 0;     ///< rows dropped under the budget
  std::uint64_t rowBuildNs = 0;      ///< wall ns spent building lazy rows
  std::size_t rowsResident = 0;      ///< cached rows
  std::size_t residentBytes = 0;     ///< same value as residentBytes()
};

/// Read-only base-graph shortest-path distances. Implementations are
/// internally synchronized: all const methods are safe to call
/// concurrently (rows are cached under a mutex).
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  virtual int nodeCount() const noexcept = 0;

  /// d(x, y) in the base graph; kInfDist when disconnected. Bit-identical
  /// to distancesFrom(min(x, y))[max(x, y)].
  virtual double distance(NodeId x, NodeId y) const = 0;

  /// Full distance row of v (nodeCount() entries, indexed by target),
  /// computed and cached on first call. The returned span stays valid for
  /// the oracle's lifetime — unless the oracle runs under a row budget, in
  /// which case it stays valid while a row lease (acquireRowLease) taken
  /// before the call is held, or, leaseless, only until the next oracle
  /// call.
  virtual std::span<const double> distancesFrom(NodeId v) const = 0;

  /// Computes (and caches) the rows of `sources` that are not cached yet,
  /// `threads` at a time (0 = all cores). Must not be called from inside a
  /// parallelFor chunk.
  virtual void prefetchRows(std::span<const NodeId> sources,
                            int threads) const = 0;

  /// Row of v exact within `radius` (>= 0): every entry <= radius is
  /// bit-identical to distancesFrom(v)'s, every other entry is > radius.
  /// Same span lifetime as distancesFrom. The default serves the full row.
  virtual std::span<const double> distancesWithin(NodeId v,
                                                  double radius) const {
    (void)radius;
    return distancesFrom(v);
  }

  /// prefetchRows for rows exact within `radius`. The default prefetches
  /// full rows.
  virtual void prefetchRowsWithin(std::span<const NodeId> sources,
                                  double radius, int threads) const {
    (void)radius;
    prefetchRows(sources, threads);
  }

  /// Full n x n matrix, stacked from the oracle's own rows (row v is
  /// distancesFrom(v)) and cached on first call — an O(n^2) escape hatch
  /// for tools and tests, never on the solve path.
  virtual const DistanceMatrix& materialize() const = 0;

  /// Estimated bytes this oracle keeps resident (rows, a materialized
  /// matrix, lease-parked evicted rows). Grows as lazy rows are cached;
  /// shrinks again when budgeted rows are evicted and freed.
  virtual std::size_t residentBytes() const noexcept = 0;

  /// Residency mode: "pair_centric" (rows on demand) for every oracle
  /// this library builds; decorators forward it.
  virtual const char* mode() const noexcept = 0;

  /// Snapshot of the oracle's telemetry counters.
  virtual OracleStats stats() const = 0;

  /// Pins every span this oracle hands out while the returned token is
  /// alive: rows evicted under the budget are parked, not freed, until the
  /// last token is released. Null (and free) on oracles that never evict.
  /// The token must not outlive the oracle.
  virtual std::shared_ptr<void> acquireRowLease() const { return nullptr; }

 protected:
  void checkNode(NodeId v) const;
};

/// The row cache: one cached Dijkstra row per requested source; a point
/// query whose row is not cached runs an early-exit Dijkstra instead.
/// Resident memory is O(|cached rows| * n) — bounded when
/// Config::rowBudgetBytes caps the row cache (see the file comment).
class PairCentricOracle final : public DistanceOracle {
 public:
  struct Config {
    /// Worker threads for materialize().
    int threads = 1;
    /// Row-cache byte budget; 0 = unbounded.
    std::size_t rowBudgetBytes = 0;
  };

  /// Keeps the graph alive; builds no rows. A bulk prefetch that builds
  /// rows is a distance build (docs/ALGORITHMS.md §14): the `apsp.run`
  /// span, one `apsp.build_seconds` sample and the request's APSP phase.
  PairCentricOracle(std::shared_ptr<const Graph> graph, Config config);
  explicit PairCentricOracle(std::shared_ptr<const Graph> graph);

  int nodeCount() const noexcept override {
    return graph_->nodeCount();
  }
  double distance(NodeId x, NodeId y) const override;
  std::span<const double> distancesFrom(NodeId v) const override {
    return distancesWithin(v, kInfDist);
  }
  void prefetchRows(std::span<const NodeId> sources,
                    int threads) const override {
    prefetchRowsWithin(sources, kInfDist, threads);
  }
  std::span<const double> distancesWithin(NodeId v,
                                          double radius) const override;
  void prefetchRowsWithin(std::span<const NodeId> sources, double radius,
                          int threads) const override;
  const DistanceMatrix& materialize() const override;
  std::size_t residentBytes() const noexcept override {
    return bytes_.load(std::memory_order_relaxed);
  }
  const char* mode() const noexcept override { return "pair_centric"; }
  OracleStats stats() const override;
  std::shared_ptr<void> acquireRowLease() const override;

  /// Number of rows currently cached.
  std::size_t cachedRowCount() const;

  /// Configured row-cache budget (0 = unbounded).
  std::size_t rowBudgetBytes() const noexcept { return budget_; }

 private:
  struct Row {
    std::shared_ptr<const std::vector<double>> data;
    double radius = kInfDist;    // exact within this radius (see file top)
    std::uint64_t touch = 0;     // logical LRU clock (higher = hotter)
  };

  /// Builds the rows of `sources` at `radius`, `threads` at a time (one
  /// row runs inline), and records them: counters, the row-build
  /// histogram and the bound request's usage. Lock-free; call outside mu_.
  std::vector<std::vector<double>> buildRows(std::span<const NodeId> sources,
                                             double radius, int threads) const;
  /// Caches `dist` (exact within `radius`) as the row of `v` unless a row
  /// of at least that radius is cached already — a narrower one is
  /// superseded and its data retired — marks it most recently used and
  /// returns it. Caller holds mu_.
  Row& insertRowLocked(NodeId v, std::vector<double>&& dist,
                       double radius) const;
  /// Frees row data that left the cache, or parks it while spans into it
  /// may still be live: under a lease, or always on an unbounded oracle,
  /// whose spans live as long as the oracle. Caller holds mu_.
  void retireLocked(std::shared_ptr<const std::vector<double>>&& data) const;
  /// Evicts LRU rows until the cache fits the budget; never evicts
  /// `protect`. Caller holds mu_.
  void enforceBudgetLocked(NodeId protect) const;
  void releaseRowLease() const;

  std::shared_ptr<const Graph> graph_;
  int threads_;
  std::size_t budget_ = 0;

  mutable std::mutex mu_;
  mutable std::map<NodeId, Row> rows_;
  mutable std::uint64_t touchSeq_ = 0;
  mutable std::size_t rowCacheBytes_ = 0;  // rows_ only, excludes full_
  // Rows evicted or superseded while spans into them may be live: still
  // resident, freed when the last lease goes away (never, unbounded).
  mutable std::vector<std::shared_ptr<const std::vector<double>>> retired_;
  mutable std::atomic<int> leases_{0};

  mutable std::mutex fullMu_;
  mutable std::unique_ptr<const DistanceMatrix> full_;

  mutable std::atomic<std::size_t> bytes_{0};

  mutable std::atomic<std::uint64_t> pointQueries_{0};
  mutable std::atomic<std::uint64_t> rowQueries_{0};
  mutable std::atomic<std::uint64_t> rowBuilds_{0};
  mutable std::atomic<std::uint64_t> rowHits_{0};
  mutable std::atomic<std::uint64_t> altQueries_{0};
  mutable std::atomic<std::uint64_t> rowsEvicted_{0};
  mutable std::atomic<std::uint64_t> rowBuildNs_{0};
};

/// Oracle factory: a lazy PairCentricOracle with `threads` materialize
/// workers and `rowBudgetBytes` capping its row cache (0 = unbounded;
/// defaults to the MSC_ORACLE_ROWS_MB environment knob). `mode` and
/// `landmarks` are ignored and accepted for source compatibility: rows are
/// always built on demand, and point queries need no landmarks.
std::shared_ptr<const DistanceOracle> makeDistanceOracle(
    std::shared_ptr<const Graph> graph, DistanceMode mode, int landmarks,
    int threads, std::size_t rowBudgetBytes = defaultOracleRowBudgetBytes());

}  // namespace msc::graph
