#include "graph/overlay.h"

#include <algorithm>
#include <stdexcept>

#include "graph/shortcut_distance.h"

namespace msc::graph {

OverlayEvaluator::OverlayEvaluator(const DistanceOracle& oracle,
                                   std::vector<NodeId> terminals,
                                   double radius)
    : oracle_(&oracle), radius_(radius), terminals_(std::move(terminals)) {
  indexTerminals();
}

void OverlayEvaluator::indexTerminals() {
  std::sort(terminals_.begin(), terminals_.end());
  terminals_.erase(std::unique(terminals_.begin(), terminals_.end()),
                   terminals_.end());
  const auto n = static_cast<std::size_t>(oracle_->nodeCount());
  terminalIndex_.assign(n, -1);
  for (std::size_t i = 0; i < terminals_.size(); ++i) {
    const NodeId t = terminals_[i];
    if (t < 0 || static_cast<std::size_t>(t) >= n) {
      throw std::out_of_range("OverlayEvaluator: terminal out of range");
    }
    terminalIndex_[static_cast<std::size_t>(t)] = static_cast<int>(i);
  }
}

std::vector<double> OverlayEvaluator::pairDistances(
    const std::vector<std::pair<NodeId, NodeId>>& queryPairs,
    const std::vector<std::pair<NodeId, NodeId>>& shortcuts) const {
  const auto n = static_cast<std::size_t>(oracle_->nodeCount());

  // Overlay node list: terminals first, then shortcut endpoints that are not
  // terminals (deduplicated via a scratch index map).
  std::vector<NodeId> overlayNodes = terminals_;
  std::vector<int> slot = terminalIndex_;
  for (const auto& [a, b] : shortcuts) {
    for (const NodeId v : {a, b}) {
      if (v < 0 || static_cast<std::size_t>(v) >= n) {
        throw std::out_of_range("OverlayEvaluator: shortcut endpoint out of range");
      }
      if (slot[static_cast<std::size_t>(v)] < 0) {
        slot[static_cast<std::size_t>(v)] = static_cast<int>(overlayNodes.size());
        overlayNodes.push_back(v);
      }
    }
  }

  // Small metric over overlay nodes, then exact 0-edge relaxations. Each
  // entry is read from the row of the lower-numbered node and mirrored, so
  // the metric is symmetric even though oracle rows are one-directional
  // (the same entry distance(x, y) serves).
  const std::size_t v = overlayNodes.size();
  std::vector<std::span<const double>> nodeRows(v);
  for (std::size_t i = 0; i < v; ++i) {
    nodeRows[i] = oracle_->distancesWithin(overlayNodes[i], radius_);
  }
  DistanceMatrix w(v, v, kInfDist);
  for (std::size_t i = 0; i < v; ++i) {
    w(i, i) = 0.0;
    for (std::size_t j = i + 1; j < v; ++j) {
      const double d = overlayNodes[i] <= overlayNodes[j]
                           ? nodeRows[i][static_cast<std::size_t>(overlayNodes[j])]
                           : nodeRows[j][static_cast<std::size_t>(overlayNodes[i])];
      w(i, j) = d;
      w(j, i) = d;
    }
  }
  for (const auto& [a, b] : shortcuts) {
    applyZeroEdge(w, slot[static_cast<std::size_t>(a)],
                  slot[static_cast<std::size_t>(b)]);
  }

  std::vector<double> out;
  out.reserve(queryPairs.size());
  for (const auto& [x, y] : queryPairs) {
    const int ix = (x >= 0 && static_cast<std::size_t>(x) < n)
                       ? terminalIndex_[static_cast<std::size_t>(x)]
                       : -1;
    const int iy = (y >= 0 && static_cast<std::size_t>(y) < n)
                       ? terminalIndex_[static_cast<std::size_t>(y)]
                       : -1;
    if (ix < 0 || iy < 0) {
      throw std::invalid_argument(
          "OverlayEvaluator: query endpoint was not declared a terminal");
    }
    out.push_back(w(static_cast<std::size_t>(ix), static_cast<std::size_t>(iy)));
  }
  return out;
}

}  // namespace msc::graph
