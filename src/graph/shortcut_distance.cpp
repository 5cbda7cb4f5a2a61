#include "graph/shortcut_distance.h"

#include <algorithm>
#include <stdexcept>

#include "obs/context.h"
#include "obs/metrics.h"

namespace msc::graph {

void applyZeroEdge(DistanceMatrix& dist, NodeId a, NodeId b) {
  const std::size_t n = dist.rows();
  if (a < 0 || b < 0 || static_cast<std::size_t>(a) >= n ||
      static_cast<std::size_t>(b) >= n) {
    throw std::out_of_range("applyZeroEdge: node index out of range");
  }
  if (a == b) return;  // a zero self-loop changes nothing
  const auto ua = static_cast<std::size_t>(a);
  const auto ub = static_cast<std::size_t>(b);
  // After the merge both endpoints share the same distance vector:
  // d(a, x) = d(b, x) = min(old d(a, x), old d(b, x)).
  for (std::size_t x = 0; x < n; ++x) {
    const double m = std::min(dist(ua, x), dist(ub, x));
    dist(ua, x) = m;
    dist(ub, x) = m;
    dist(x, ua) = m;
    dist(x, ub) = m;
  }
  const double* da = dist.row(ua);
  for (std::size_t x = 0; x < n; ++x) {
    const double dxa = dist(x, ua);
    if (dxa == kInfDist) continue;
    double* rowX = dist.row(x);
    for (std::size_t y = x + 1; y < n; ++y) {
      const double via = dxa + da[y];
      if (via < rowX[y]) {
        rowX[y] = via;
        dist(y, x) = via;
      }
    }
  }
}

// ----------------------------------------------------- ShortcutRowStore ----

ShortcutRowStore::ShortcutRowStore(const DistanceOracle& oracle,
                                   std::span<const NodeId> terminals,
                                   int threads)
    : oracle_(&oracle), n_(oracle.nodeCount()), threads_(threads) {
  baseTerminals_.assign(terminals.begin(), terminals.end());
  std::sort(baseTerminals_.begin(), baseTerminals_.end());
  baseTerminals_.erase(
      std::unique(baseTerminals_.begin(), baseTerminals_.end()),
      baseTerminals_.end());
  for (const NodeId v : baseTerminals_) {
    if (v < 0 || v >= n_) {
      throw std::out_of_range("ShortcutRowStore: terminal out of range");
    }
  }
  slot_.assign(static_cast<std::size_t>(n_), -1);
  reset();
}

void ShortcutRowStore::reset() {
  applied_.clear();
  std::fill(slot_.begin(), slot_.end(), -1);
  owners_ = baseTerminals_;
  rows_.assign(owners_.size(), {});
  // One bulk fetch so lazy oracles compute missing rows in parallel.
  oracle_->prefetchRows(owners_, threads_);
  for (std::size_t i = 0; i < owners_.size(); ++i) {
    const auto row = oracle_->distancesFrom(owners_[i]);
    rows_[i].assign(row.begin(), row.end());
    slot_[static_cast<std::size_t>(owners_[i])] = static_cast<int>(i);
  }
  rowsMaterialized_.fetch_add(owners_.size(), std::memory_order_relaxed);
  if (msc::obs::enabled() && !owners_.empty()) {
    static auto& c = msc::obs::counter("rowstore.rows_materialized");
    c.add(owners_.size());
  }
}

bool ShortcutRowStore::hasRow(NodeId v) const {
  return v >= 0 && v < n_ && slot_[static_cast<std::size_t>(v)] >= 0;
}

const double* ShortcutRowStore::rowIfPresent(NodeId v) const {
  if (!hasRow(v)) return nullptr;
  return rows_[static_cast<std::size_t>(slot_[static_cast<std::size_t>(v)])]
      .data();
}

std::size_t ShortcutRowStore::ensureRowSlot(NodeId v) {
  if (v < 0 || v >= n_) {
    throw std::out_of_range("ShortcutRowStore: node index out of range");
  }
  const int existing = slot_[static_cast<std::size_t>(v)];
  if (existing >= 0) return static_cast<std::size_t>(existing);
  // Late terminal: start from the base row and replay every applied
  // shortcut. The merged snapshot of step i is the evolved row of that
  // step's endpoints, so the replay reproduces exactly the dense-matrix
  // row this node would have ended up with.
  const auto base = oracle_->distancesFrom(v);
  std::vector<double> row(base.begin(), base.end());
  for (const AppliedShortcut& f : applied_) {
    const auto ua = static_cast<std::size_t>(f.a);
    const auto ub = static_cast<std::size_t>(f.b);
    const double m = std::min(row[ua], row[ub]);
    row[ua] = m;
    row[ub] = m;
    if (m == kInfDist) continue;
    const double* merged = f.merged.data();
    for (std::size_t y = 0; y < row.size(); ++y) {
      const double via = m + merged[y];
      if (via < row[y]) row[y] = via;
    }
  }
  const std::size_t idx = rows_.size();
  slot_[static_cast<std::size_t>(v)] = static_cast<int>(idx);
  owners_.push_back(v);
  rows_.push_back(std::move(row));
  rowsReplayed_.fetch_add(1, std::memory_order_relaxed);
  if (auto* ctx = msc::obs::currentRequest()) {
    ctx->oracle().rowsReplayed.fetch_add(1, std::memory_order_relaxed);
  }
  if (msc::obs::enabled()) {
    static auto& c = msc::obs::counter("rowstore.rows_replayed");
    c.add(1);
  }
  return idx;
}

const double* ShortcutRowStore::row(NodeId v) {
  return rows_[ensureRowSlot(v)].data();
}

double ShortcutRowStore::distance(NodeId u, NodeId x) {
  if (x < 0 || x >= n_) {
    throw std::out_of_range("ShortcutRowStore: node index out of range");
  }
  return row(u)[static_cast<std::size_t>(x)];
}

void ShortcutRowStore::applyZeroEdge(NodeId a, NodeId b) {
  if (a < 0 || b < 0 || a >= n_ || b >= n_) {
    throw std::out_of_range("ShortcutRowStore: node index out of range");
  }
  if (a == b) return;  // a zero self-loop changes nothing
  const std::size_t slotA = ensureRowSlot(a);
  const std::size_t slotB = ensureRowSlot(b);
  const auto ua = static_cast<std::size_t>(a);
  const auto ub = static_cast<std::size_t>(b);
  const auto n = static_cast<std::size_t>(n_);

  // Element-wise min of the endpoint rows == the evolved row both
  // endpoints share after the merge (applyZeroEdge's first pass).
  std::vector<double> merged(n);
  {
    const double* ra = rows_[slotA].data();
    const double* rb = rows_[slotB].data();
    for (std::size_t y = 0; y < n; ++y) merged[y] = std::min(ra[y], rb[y]);
  }

  // Per row: merge the endpoint columns, then the closed-form relaxation
  // d'(u, y) = min(d(u, y), m_u + merged[y]) — operand order matches the
  // dense applyZeroEdge (dxa + da[y]), so values stay bit-identical. The
  // endpoint rows themselves converge to `merged` through the same loop
  // (m is 0 there and 0.0 + x == x exactly).
  for (auto& stored : rows_) {
    double* r = stored.data();
    const double m = std::min(r[ua], r[ub]);
    r[ua] = m;
    r[ub] = m;
    if (m == kInfDist) continue;
    const double* md = merged.data();
    for (std::size_t y = 0; y < n; ++y) {
      const double via = m + md[y];
      if (via < r[y]) r[y] = via;
    }
  }
  applied_.push_back(AppliedShortcut{a, b, std::move(merged)});
  rowsEvolved_.fetch_add(rows_.size(), std::memory_order_relaxed);
  if (auto* ctx = msc::obs::currentRequest()) {
    ctx->oracle().rowsEvolved.fetch_add(rows_.size(),
                                        std::memory_order_relaxed);
  }
  if (msc::obs::enabled()) {
    static auto& c = msc::obs::counter("rowstore.rows_evolved");
    c.add(rows_.size());
  }
}

}  // namespace msc::graph
