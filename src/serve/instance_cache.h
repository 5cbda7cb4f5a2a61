// Content-addressed instance cache for the solve service.
//
// The expensive, request-independent work of a solve — parsing the graph,
// the distance oracle and the rows it caches, materializing the candidate
// universe — is memoized here so repeated solves on the same topology skip
// it.
// Graphs and pair sets are keyed by a content hash of their canonical
// serialization ("g<16 hex>" / "p<16 hex>"): loading identical content
// twice returns the same key and stores one copy, so keys are safe to
// compute client-side or share between clients.
//
// Memory is bounded: every entry is charged an estimated byte size (graph
// adjacency + edge list, the distance oracle once memoized — the rows
// solves have cached in it, charged when an instance is built and when
// its request ends — the candidate list, the pair list) against a
// budget (MSC_SERVE_CACHE_MB via the server config), and least-recently-
// used entries are evicted when the total exceeds it. Eviction invalidates the key — a later request using it
// gets a structured "unknown key" error and must re-load — but never
// invalidates in-flight requests: entries are handed out as shared_ptr, so
// an evicted graph lives until its last request completes.
//
// All methods are thread-safe behind one mutex; the oracle memoization runs
// under it, so concurrent first-touch solves of the same graph build the
// distance oracle exactly once (later requests are APSP hits). Rows are
// built on demand, outside the lock, by the instances that read them.
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
  /// `oracleRowBudgetBytes` caps each oracle's row cache
  /// (0 = unbounded; defaults to the MSC_ORACLE_ROWS_MB knob).
  explicit InstanceCache(std::size_t byteBudget,
                         std::size_t oracleRowBudgetBytes =
                             msc::graph::defaultOracleRowBudgetBytes());

  /// Stores (or re-touches) a graph, returns its content key "g<hex>".
  /// `mode` (load_graph's "distance_mode" knob) picks the graph's
  /// candidate universe, resolved here — Auto by the node-count rule:
  /// all node pairs when it resolves to Dense, pair-node pairs otherwise.
  /// Re-loading the same content sets the rule again and keeps the
  /// memoized oracle.
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
  /// and building + memoizing one otherwise; `threads` workers prefetch
  /// the pair-node rows. `allPairs` reports the graph's candidate rule
  /// (see putGraph). The result is bit-identical either way.
  /// Throws std::runtime_error on an unknown/evicted key; whatever
  /// Instance's validation throws (bad pair endpoints, ...) propagates.
  core::Instance instance(const std::string& graphKey,
                          const std::string& pairsKey,
                          double distanceThreshold, int threads,
                          bool* apspWasCached = nullptr,
                          bool* allPairs = nullptr);

  /// Charges the rows a graph's oracle has cached since its last charge
  /// and evicts over budget (never that graph). Touches nothing: call it
  /// when a request that used the graph ends, so the rows its solve built
  /// count against the budget at once. A no-op for an unknown key.
  void recharge(const std::string& graphKey);

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
    bool allPairs = true;  ///< candidate rule, set by putGraph
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
  /// Memoizes the distance oracle for an entry (an empty row cache, built
  /// under the lock). Returns true when the oracle was already present.
  bool ensureOracle(GraphEntry& entry, int threads);
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
