#include "mc/world_sampler.h"

#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/rng.h"

namespace msc::mc {
namespace {

/// splitmix64 finalizer — decorrelates the per-edge stream seeds so edge 0
/// at seed s and edge 1 at seed s-1 do not share a stream.
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t edge) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (edge + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

WorldSet::WorldSet(const msc::graph::Graph& graph, const WorldConfig& config)
    : graph_(&graph), worlds_(config.worlds), seed_(config.seed) {
  if (config.worlds <= 0) {
    throw std::invalid_argument("WorldSet: worlds must be positive");
  }
  const auto edges = graph.edges();
  planes_.reserve(edges.size());
  const auto w = static_cast<std::size_t>(worlds_);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    msc::util::Bitset plane(w);
    const double pUp = std::exp(-edges[e].length);
    if (pUp >= 1.0) {
      // Zero-length links (and shortcuts, were they ever in the base
      // graph) never fail; skip the draws so the plane is exactly full.
      plane.setAll();
    } else {
      // One independent stream per edge, drawn world-major: the plane is a
      // pure function of (seed, edge index, W), independent of how many
      // edges precede it or how evaluation is threaded.
      msc::util::Rng rng(mixSeed(seed_, static_cast<std::uint64_t>(e)));
      for (std::size_t j = 0; j < w; ++j) {
        if (rng.chance(pUp)) plane.set(j);
      }
    }
    planes_.push_back(std::move(plane));
  }
  static auto& sampled = msc::obs::counter("mc.worlds");
  sampled.add(static_cast<std::uint64_t>(worlds_));
}

std::vector<std::uint8_t> WorldSet::upFlags(int world) const {
  if (world < 0 || world >= worlds_) {
    throw std::out_of_range("WorldSet: world index out of range");
  }
  std::vector<std::uint8_t> up(planes_.size(), 0);
  for (std::size_t e = 0; e < planes_.size(); ++e) {
    up[e] = edgeUpIn(world, e) ? 1 : 0;
  }
  return up;
}

}  // namespace msc::mc
