// Content-addressed instance cache for the solve service.
//
// The expensive, request-independent work of a solve — parsing the graph,
// the n-source APSP build, materializing the candidate universe — is
// memoized here so repeated solves on the same topology skip it entirely.
// Graphs and pair sets are keyed by a content hash of their canonical
// serialization ("g<16 hex>" / "p<16 hex>"): loading identical content
// twice returns the same key and stores one copy, so keys are safe to
// compute client-side or share between clients.
//
// Memory is bounded: every entry is charged an estimated byte size (graph
// adjacency + edge list, the distance oracle once memoized — all n rows in
// the dense mode, just the cached rows in pair_centric — the candidate
// list, the pair list) against a budget (MSC_SERVE_CACHE_MB via
// the server config), and least-recently-used entries are evicted when the
// total exceeds it. Eviction invalidates the key — a later request using it
// gets a structured "unknown key" error and must re-load — but never
// invalidates in-flight requests: entries are handed out as shared_ptr, so
// an evicted graph lives until its last request completes.
//
// All methods are thread-safe behind one mutex; the oracle memoization runs
// under it, so concurrent first-touch solves of the same graph build the
// distance oracle exactly once (later requests are APSP hits).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/candidates.h"
#include "core/instance.h"
#include "graph/apsp.h"
#include "graph/distance_oracle.h"
#include "graph/graph.h"

namespace msc::serve {

/// FNV-1a 64 over `bytes`, rendered as 16 lowercase hex digits.
std::string contentHashHex(const void* bytes, std::size_t size);

class InstanceCache {
 public:
  /// Aggregate counters (monotonic since construction) plus current usage.
  struct Stats {
    std::uint64_t graphHits = 0;
    std::uint64_t graphMisses = 0;
    std::uint64_t pairsHits = 0;
    std::uint64_t pairsMisses = 0;
    std::uint64_t apspHits = 0;      ///< solves that reused a memoized oracle
    std::uint64_t apspComputes = 0;  ///< solves that had to build one
    std::uint64_t evictions = 0;
    std::size_t bytesUsed = 0;
    std::size_t byteBudget = 0;
    std::size_t entries = 0;
    // Built distance oracles: count, resident bytes and resident rows
    // (live values — pair-centric oracles grow as rows are cached). Their
    // query counters are per-request usage, totalled by the serve engine.
    std::size_t oracles = 0;
    std::size_t oracleBytes = 0;
    std::size_t oracleRows = 0;
  };

  /// `byteBudget` 0 means "effectively unbounded" (no eviction).
  /// `oracleRowBudgetBytes` caps each pair-centric oracle's row cache
  /// (0 = unbounded; defaults to the MSC_ORACLE_ROWS_MB knob).
  explicit InstanceCache(std::size_t byteBudget,
                         std::size_t oracleRowBudgetBytes =
                             msc::graph::defaultOracleRowBudgetBytes());

  /// Stores (or re-touches) a graph, returns its content key "g<hex>".
  /// `mode` (load_graph's "distance_mode" knob) is resolved here, once —
  /// Auto by the node-count rule — and the resolved mode alone decides the
  /// oracle built lazily on first solve. Re-loading the same content with
  /// a different resolved mode drops the memoized oracle so the next solve
  /// rebuilds it in the new mode.
  std::string putGraph(
      msc::graph::Graph g,
      msc::graph::DistanceMode mode = msc::graph::DistanceMode::Auto);

  /// Stores (or re-touches) a pair set, returns its content key "p<hex>".
  std::string putPairs(std::vector<core::SocialPair> pairs);

  /// Lookup; null when never loaded or evicted. Touches LRU on hit.
  std::shared_ptr<const msc::graph::Graph> findGraph(const std::string& key);
  std::shared_ptr<const std::vector<core::SocialPair>> findPairs(
      const std::string& key);

  /// Assembles an Instance for (graphKey, pairsKey, distanceThreshold),
  /// reusing the graph's memoized distance oracle when present (APSP hit)
  /// and building + memoizing one with `threads` workers otherwise (in the
  /// mode resolved at putGraph, reported through `resolvedMode`). The
  /// result is bit-identical either way (the APSP determinism contract).
  /// Throws std::runtime_error on an unknown/evicted key; whatever
  /// Instance's validation throws (bad pair endpoints, ...) propagates.
  core::Instance instance(const std::string& graphKey,
                          const std::string& pairsKey,
                          double distanceThreshold, int threads,
                          bool* apspWasCached = nullptr,
                          msc::graph::DistanceMode* resolvedMode = nullptr);

  /// The graph's all-pairs candidate set, memoized per graph entry.
  std::shared_ptr<const core::CandidateSet> candidates(
      const std::string& graphKey);

  Stats stats() const;

  /// Drops every entry and zeroes bytesUsed; counters keep accumulating.
  void clear();

 private:
  struct GraphEntry {
    std::shared_ptr<const msc::graph::Graph> graph;
    std::shared_ptr<const msc::graph::DistanceOracle> oracle;  // lazy
    std::shared_ptr<const core::CandidateSet> candidates;      // lazy
    /// Resolved at putGraph: Dense or PairCentric, never Auto.
    msc::graph::DistanceMode mode = msc::graph::DistanceMode::Dense;
    std::size_t oracleBytes = 0;  ///< last residentBytes() charged
    std::size_t bytes = 0;
    std::list<std::string>::iterator lruPos;
  };
  struct PairsEntry {
    std::shared_ptr<const std::vector<core::SocialPair>> pairs;
    std::size_t bytes = 0;
    std::list<std::string>::iterator lruPos;
  };

  // All private helpers assume mu_ is held.
  void touch(std::list<std::string>::iterator pos);
  GraphEntry* findGraphEntry(const std::string& key, bool countStats);
  PairsEntry* findPairsEntry(const std::string& key, bool countStats);
  /// Memoizes the distance oracle for an entry (the dense build runs all
  /// n rows under the lock). Returns true when the oracle was already
  /// present.
  bool ensureOracle(GraphEntry& entry, int threads);
  /// Drops the memoized oracle and unwinds its byte charge (mode change).
  void dropOracle(GraphEntry& entry);
  /// Re-reads oracle->residentBytes() and folds the delta into the byte
  /// accounting (lazy oracles grow as rows are cached).
  void refreshOracleBytes(GraphEntry& entry);
  void ensureCandidates(GraphEntry& entry);
  /// Evicts LRU entries until bytesUsed_ <= budget, never evicting `keep`.
  void evictOverBudget(const std::string& keep);
  void eraseKey(const std::string& key);

  mutable std::mutex mu_;
  std::size_t byteBudget_;
  std::size_t oracleRowBudgetBytes_;
  std::size_t bytesUsed_ = 0;
  std::map<std::string, GraphEntry> graphs_;
  std::map<std::string, PairsEntry> pairsSets_;
  std::list<std::string> lru_;  // front = most recent, back = next to evict
  Stats counters_;
};

}  // namespace msc::serve
