#include "serve/instance_cache.h"

#include <array>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace msc::serve {

namespace {

// Estimated resident bytes of each cacheable object. These are charges
// against the budget, not exact allocator numbers: map nodes and vector
// slack carry allocator overhead the estimate ignores, so the real
// footprint is a small constant factor above — the budget still bounds it.
// A graph is its edge list plus the CSR adjacency (n + 1 offsets, 2e arcs).
std::size_t graphBytes(const msc::graph::Graph& g) {
  const auto n = static_cast<std::size_t>(g.nodeCount());
  const std::size_t e = g.edgeCount();
  return e * sizeof(msc::graph::Edge) + 2 * e * sizeof(msc::graph::Arc) +
         (n + 1) * sizeof(std::size_t) + 64;
}

std::size_t candidatesBytes(const core::CandidateSet& c) {
  return c.size() * sizeof(core::Shortcut) +
         c.endpoints().size() * sizeof(core::NodeId) + 64;
}

std::size_t pairsBytes(const std::vector<core::SocialPair>& p) {
  return p.size() * sizeof(core::SocialPair) + 64;
}

class Fnv1a {
 public:
  void feed(const void* bytes, std::size_t size) noexcept {
    const auto* p = static_cast<const unsigned char*>(bytes);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void feedValue(const T& v) noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    feed(&v, sizeof(v));
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hexKey(char prefix, std::uint64_t hash) {
  std::array<char, 20> buf{};
  std::snprintf(buf.data(), buf.size(), "%c%016llx", prefix,
                static_cast<unsigned long long>(hash));
  return std::string(buf.data());
}

}  // namespace

std::string contentHashHex(const void* bytes, std::size_t size) {
  Fnv1a h;
  h.feed(bytes, size);
  std::array<char, 20> buf{};
  std::snprintf(buf.data(), buf.size(), "%016llx",
                static_cast<unsigned long long>(h.value()));
  return std::string(buf.data());
}

InstanceCache::InstanceCache(std::size_t byteBudget,
                             std::size_t oracleRowBudgetBytes)
    : byteBudget_(byteBudget), oracleRowBudgetBytes_(oracleRowBudgetBytes) {}

void InstanceCache::touch(std::list<std::string>::iterator pos) {
  lru_.splice(lru_.begin(), lru_, pos);
}

InstanceCache::GraphEntry* InstanceCache::findGraphEntry(
    const std::string& key, bool countStats) {
  const auto it = graphs_.find(key);
  if (it == graphs_.end()) {
    if (countStats) ++counters_.graphMisses;
    return nullptr;
  }
  if (countStats) ++counters_.graphHits;
  touch(it->second.lruPos);
  return &it->second;
}

InstanceCache::PairsEntry* InstanceCache::findPairsEntry(
    const std::string& key, bool countStats) {
  const auto it = pairsSets_.find(key);
  if (it == pairsSets_.end()) {
    if (countStats) ++counters_.pairsMisses;
    return nullptr;
  }
  if (countStats) ++counters_.pairsHits;
  touch(it->second.lruPos);
  return &it->second;
}

std::string InstanceCache::putGraph(msc::graph::Graph g,
                                    msc::graph::DistanceMode mode) {
  // Canonical bytes: node count then every edge (endpoints + length bits)
  // in insertion order — exactly what writeEdgeList round-trips.
  Fnv1a h;
  h.feedValue(g.nodeCount());
  for (const auto& e : g.edges()) {
    h.feedValue(e.u);
    h.feedValue(e.v);
    h.feedValue(e.length);
  }
  const std::string key = hexKey('g', h.value());
  const bool allPairs = msc::graph::resolveDistanceMode(mode, g.nodeCount()) ==
                        msc::graph::DistanceMode::Dense;

  const std::lock_guard<std::mutex> lock(mu_);
  if (GraphEntry* existing = findGraphEntry(key, /*countStats=*/false)) {
    existing->allPairs = allPairs;  // re-touch; the oracle stays
    return key;
  }
  GraphEntry entry;
  entry.graph = std::make_shared<const msc::graph::Graph>(std::move(g));
  entry.allPairs = allPairs;
  entry.bytes = graphBytes(*entry.graph);
  lru_.push_front(key);
  entry.lruPos = lru_.begin();
  bytesUsed_ += entry.bytes;
  graphs_.emplace(key, std::move(entry));
  evictOverBudget(key);
  return key;
}

std::string InstanceCache::putPairs(std::vector<core::SocialPair> pairs) {
  Fnv1a h;
  for (const auto& p : pairs) {
    h.feedValue(p.u);
    h.feedValue(p.w);
  }
  const std::string key = hexKey('p', h.value());

  const std::lock_guard<std::mutex> lock(mu_);
  if (findPairsEntry(key, /*countStats=*/false)) return key;  // re-touch
  PairsEntry entry;
  entry.pairs = std::make_shared<const std::vector<core::SocialPair>>(
      std::move(pairs));
  entry.bytes = pairsBytes(*entry.pairs);
  lru_.push_front(key);
  entry.lruPos = lru_.begin();
  bytesUsed_ += entry.bytes;
  pairsSets_.emplace(key, std::move(entry));
  evictOverBudget(key);
  return key;
}

std::shared_ptr<const msc::graph::Graph> InstanceCache::findGraph(
    const std::string& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  GraphEntry* entry = findGraphEntry(key, /*countStats=*/true);
  return entry ? entry->graph : nullptr;
}

std::shared_ptr<const std::vector<core::SocialPair>> InstanceCache::findPairs(
    const std::string& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  PairsEntry* entry = findPairsEntry(key, /*countStats=*/true);
  return entry ? entry->pairs : nullptr;
}

void InstanceCache::refreshOracleBytes(GraphEntry& entry) {
  const std::size_t now = entry.oracle ? entry.oracle->residentBytes() : 0;
  bytesUsed_ += now;
  bytesUsed_ -= entry.oracleBytes;
  entry.bytes += now;
  entry.bytes -= entry.oracleBytes;
  entry.oracleBytes = now;
}

bool InstanceCache::ensureOracle(GraphEntry& entry, int threads) {
  if (entry.oracle) {
    ++counters_.apspHits;
    // Lazy oracles grew since the last touch (rows cached by solves);
    // pick the delta up so the budget still bounds them.
    refreshOracleBytes(entry);
    return true;
  }
  ++counters_.apspComputes;
  // An empty row cache: the request's APSP phase (§14) is the pair-node
  // row prefetch of the instance built on it.
  entry.oracle = std::make_shared<const msc::graph::PairCentricOracle>(
      entry.graph,
      msc::graph::PairCentricOracle::Config{
          .threads = threads,
          .rowBudgetBytes = oracleRowBudgetBytes_});
  refreshOracleBytes(entry);
  return false;
}

void InstanceCache::ensureCandidates(GraphEntry& entry) {
  if (entry.candidates) return;
  entry.candidates = std::make_shared<const core::CandidateSet>(
      core::CandidateSet::allPairs(entry.graph->nodeCount()));
  bytesUsed_ += candidatesBytes(*entry.candidates);
  entry.bytes += candidatesBytes(*entry.candidates);
}

core::Instance InstanceCache::instance(const std::string& graphKey,
                                       const std::string& pairsKey,
                                       double distanceThreshold, int threads,
                                       bool* apspWasCached,
                                       bool* allPairs) {
  std::shared_ptr<const msc::graph::Graph> graph;
  std::shared_ptr<const msc::graph::DistanceOracle> oracle;
  std::shared_ptr<const std::vector<core::SocialPair>> pairs;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    GraphEntry* gEntry = findGraphEntry(graphKey, /*countStats=*/true);
    if (!gEntry) {
      throw std::runtime_error("unknown graph key \"" + graphKey +
                               "\" (never loaded, or evicted — re-send "
                               "load_graph)");
    }
    PairsEntry* pEntry = findPairsEntry(pairsKey, /*countStats=*/true);
    if (!pEntry) {
      throw std::runtime_error("unknown pairs key \"" + pairsKey +
                               "\" (never loaded, or evicted — re-send "
                               "load_pairs)");
    }
    const bool hit = ensureOracle(*gEntry, threads);
    if (apspWasCached) *apspWasCached = hit;
    if (allPairs) *allPairs = gEntry->allPairs;
    graph = gEntry->graph;
    oracle = gEntry->oracle;
    pairs = pEntry->pairs;
    evictOverBudget(graphKey);
  }
  // The pair-node row prefetch runs outside the cache lock; the rows it
  // built are charged right after.
  core::Instance built(std::move(graph), std::move(oracle), *pairs,
                       distanceThreshold, threads);
  recharge(graphKey);
  return built;
}

void InstanceCache::recharge(const std::string& graphKey) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = graphs_.find(graphKey);
  if (it == graphs_.end()) return;  // evicted meanwhile
  refreshOracleBytes(it->second);
  evictOverBudget(graphKey);
}

std::shared_ptr<const core::CandidateSet> InstanceCache::candidates(
    const std::string& graphKey) {
  const std::lock_guard<std::mutex> lock(mu_);
  GraphEntry* entry = findGraphEntry(graphKey, /*countStats=*/false);
  if (!entry) {
    throw std::runtime_error("unknown graph key \"" + graphKey +
                             "\" (never loaded, or evicted — re-send "
                             "load_graph)");
  }
  ensureCandidates(*entry);
  auto result = entry->candidates;
  evictOverBudget(graphKey);
  return result;
}

InstanceCache::Stats InstanceCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats s = counters_;
  s.bytesUsed = bytesUsed_;
  s.byteBudget = byteBudget_;
  s.entries = graphs_.size() + pairsSets_.size();
  for (const auto& [key, entry] : graphs_) {
    if (!entry.oracle) continue;
    // Live values, not the charged estimate: a scrape between touches
    // still sees rows cached since (docs/ALGORITHMS.md §16).
    const msc::graph::OracleStats os = entry.oracle->stats();
    ++s.oracles;
    s.oracleBytes += os.residentBytes;
    s.oracleRows += os.rowsResident;
  }
  return s;
}

void InstanceCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  graphs_.clear();
  pairsSets_.clear();
  lru_.clear();
  bytesUsed_ = 0;
}

void InstanceCache::evictOverBudget(const std::string& keep) {
  if (byteBudget_ == 0) return;
  while (bytesUsed_ > byteBudget_ && !lru_.empty()) {
    // Walk from the cold end, skipping the entry the caller just touched
    // (even a single over-budget entry must stay usable for its request).
    auto victim = std::prev(lru_.end());
    while (*victim == keep && victim != lru_.begin()) --victim;
    if (*victim == keep) return;  // nothing evictable left
    const std::string key = *victim;
    eraseKey(key);
    ++counters_.evictions;
  }
}

void InstanceCache::eraseKey(const std::string& key) {
  if (const auto it = graphs_.find(key); it != graphs_.end()) {
    bytesUsed_ -= it->second.bytes;
    lru_.erase(it->second.lruPos);
    graphs_.erase(it);
    return;
  }
  if (const auto it = pairsSets_.find(key); it != pairsSets_.end()) {
    bytesUsed_ -= it->second.bytes;
    lru_.erase(it->second.lruPos);
    pairsSets_.erase(it);
  }
}

}  // namespace msc::serve
