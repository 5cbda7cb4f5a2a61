#include "core/pair_ball.h"

#include <stdexcept>

namespace msc::core {

std::vector<PairRows> pairRowsOf(std::span<const SocialPair> pairs,
                                 const msc::graph::ShortcutRowStore& store) {
  std::vector<PairRows> rows;
  rows.reserve(pairs.size());
  for (const SocialPair& p : pairs) {
    rows.push_back({store.rowIfPresent(p.u), store.rowIfPresent(p.w)});
  }
  return rows;
}

void PairBallIndex::build(std::span<const SocialPair> pairs,
                          std::span<const PairRows> rows, double dt,
                          std::span<const NodeId> nodes, int nodeCount) {
  if (rows.size() != pairs.size()) {
    throw std::invalid_argument("PairBallIndex: one row pair per pair");
  }
  valid_ = false;
  for (const NodeId x : nodes_) slot_[static_cast<std::size_t>(x)] = -1;
  slot_.resize(static_cast<std::size_t>(nodeCount), -1);
  nodes_.assign(nodes.begin(), nodes.end());
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    const NodeId x = nodes_[s];
    if (x < 0 || x >= nodeCount) {
      nodes_.resize(s);
      throw std::out_of_range("PairBallIndex: node out of range");
    }
    slot_[static_cast<std::size_t>(x)] = static_cast<int>(s);
  }
  rows_.assign(rows.begin(), rows.end());
  stride_ = (pairs.size() + 63) / 64;
  words_.assign(nodes_.size() * stride_, 0);

  // Pair-major: two sequential row sweeps per open pair.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const double* ru = rows[i].u;
    const double* rw = rows[i].w;
    if (ru[static_cast<std::size_t>(pairs[i].w)] <= dt) continue;
    const std::uint64_t bit = 1ULL << (i & 63);
    std::uint64_t* column = words_.data() + (i >> 6);
    for (std::size_t s = 0; s < nodes_.size(); ++s) {
      const auto x = static_cast<std::size_t>(nodes_[s]);
      if (ru[x] <= dt || rw[x] <= dt) column[s * stride_] |= bit;
    }
  }
  valid_ = true;
}

}  // namespace msc::core
