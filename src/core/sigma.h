// The MSC objective sigma(F): number of important social pairs whose
// shortest-path distance in G ∪ F meets the distance requirement
// (paper §III-C). With pair weights (one per pair, finite and >= 0) it is
// the sum of the maintained pairs' weights; no weights means 1.0 each,
// which is the paper's count exactly (every partial sum is an integer).
//
// Two exact paths, one per access pattern:
//   * incremental (reset/gainIfAdd/scanGains/add): apply each added
//     shortcut as an exact zero-edge relaxation to the pair-endpoint
//     distance rows (graph/shortcut_distance.h), O(|rows| * n) per
//     shortcut. One marginal gain checks the closed form for every
//     unsatisfied pair (O(m)). A scan of a whole candidate set
//     (scanGains) instead walks, per unsatisfied pair, the product of its
//     endpoints' d_t-balls over the candidate endpoints (BallProduct) and
//     adds the pair's weight to every candidate it counts for: the same
//     sums in the same order, so bit-identical to the loop, for
//     O(m * |endpoints| + ball-product visits + candidates) per scan.
//   * whole placement (value, sigmaValue): zero-edge relaxations on the
//     small terminal overlay (graph/overlay.h), a v-by-v metric with
//     v <= min(n, |pair nodes| + 2|F|), so it never holds more than the
//     rows path would.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/candidates.h"
#include "core/instance.h"
#include "core/set_function.h"
#include "graph/overlay.h"
#include "graph/shortcut_distance.h"

namespace msc::core {

/// `weights` with one entry per pair of `instance`, each finite and >= 0;
/// empty means 1.0 per pair. Throws std::invalid_argument otherwise.
std::vector<double> checkPairWeights(const Instance& instance,
                                     std::vector<double> weights);

/// Distance rows of one pair's endpoints (row of u, row of w), each
/// indexed by graph node. The row of w stands in for the column of w (the
/// metric is symmetric).
struct PairRows {
  const double* u = nullptr;
  const double* w = nullptr;
};

/// The test "pair (u, w) counts for shortcut (a, b)", i.e.
///     d(u,a) + d(b,w) <= d_t  or  d(u,b) + d(a,w) <= d_t,
/// evaluated for every open pair and candidate at once. Distances are
/// >= 0 and fl(x + y) >= x for y >= 0, so a passing sum needs a in the
/// d_t-ball B(u) and b in B(w) (or the reverse). build() sorts, for every
/// open pair, B(u) ∩ E and B(w) ∩ E by distance (E = the candidate
/// endpoints); forEachHit walks x ∈ B(u), y ∈ B(w) while
/// d(u,x) + d(w,y) <= d_t — fl(x + y) is monotone in y, so the break is
/// exact — which visits exactly the passing (pair, x, y) triples.
class BallProduct {
 public:
  /// Pair i is open iff !(rows[i].u[pairs[i].w] <= dt). The row pointers
  /// and `candidates` must stay valid while forEachHit is used.
  void build(std::span<const SocialPair> pairs, std::span<const PairRows> rows,
             double dt, const CandidateSet& candidates);

  /// Calls hit(i, c) once for every open pair i, in ascending order, and
  /// every candidate index c in [begin, end) that pair i counts for.
  /// Returns the (pair, x, y) visits that landed on those candidates
  /// (both orientations of a candidate can pass; it is hit once).
  template <typename Fn>
  std::size_t forEachHit(std::size_t begin, std::size_t end, Fn&& hit) const {
    std::size_t visits = 0;
    for (const OpenPair& p : open_) {
      const Near* const u0 = near_.data() + p.uBegin;
      const Near* const u1 = near_.data() + p.wBegin;
      const Near* const w0 = u1;
      const Near* const w1 = near_.data() + p.wEnd;
      if (w0 == w1) continue;
      for (const Near* eu = u0; eu != u1; ++eu) {
        if (!(eu->d + w0->d <= dt_)) break;  // the sums only grow from here
        for (const Near* ew = w0; ew != w1; ++ew) {
          if (!(eu->d + ew->d <= dt_)) break;
          const NodeId x = eu->x;
          const NodeId y = ew->x;
          if (x == y) continue;
          const long c = candidates_->indexOf(
              Shortcut{std::min(x, y), std::max(x, y)});
          if (c < 0 || static_cast<std::size_t>(c) < begin ||
              static_cast<std::size_t>(c) >= end) {
            continue;
          }
          ++visits;
          // With x > y the candidate is (y, x); when its (y, x) orientation
          // passes too, that visit counts it.
          if (x > y && p.rows.u[y] + p.rows.w[x] <= dt_) continue;
          hit(p.pair, static_cast<std::size_t>(c));
        }
      }
    }
    return visits;
  }

 private:
  struct Near {
    double d;  // distance from the ball's centre
    NodeId x;
  };
  struct OpenPair {
    std::size_t pair;
    PairRows rows;
    std::size_t uBegin;  // B(u) is near_[uBegin, wBegin)
    std::size_t wBegin;  // B(w) is near_[wBegin, wEnd)
    std::size_t wEnd;
  };

  const CandidateSet* candidates_ = nullptr;
  double dt_ = 0.0;
  std::vector<OpenPair> open_;
  std::vector<Near> near_;
};

class SigmaEvaluator final : public SetFunction, public IncrementalEvaluator {
 public:
  /// The instance must outlive the evaluator. `pairWeights` as in
  /// checkPairWeights (empty: every pair weighs 1.0).
  explicit SigmaEvaluator(const Instance& instance,
                          std::vector<double> pairWeights = {});

  // --- SetFunction ---
  double value(const ShortcutList& placement) const override;
  std::string name() const override { return "sigma"; }

  // --- IncrementalEvaluator ---
  void reset() override;
  /// Sum of the weights of the pairs maintained under the current
  /// placement (added in ascending pair order within each add()).
  double currentValue() const override { return current_; }
  double gainIfAdd(const Shortcut& f) const override;
  void add(const Shortcut& f) override;
  /// Accumulates per open pair over its BallProduct; with threads each
  /// worker keeps one candidate range.
  void scanGains(const CandidateSet& candidates, std::span<double> gains,
                 int threads, std::span<const std::uint8_t> skip) override;

  // --- introspection on the current incremental state ---
  /// Number of maintained pairs, whatever their weights.
  int satisfiedCount() const noexcept { return satisfied_; }
  bool pairSatisfied(int pairIndex) const {
    return pairSatisfied_.at(static_cast<std::size_t>(pairIndex)) != 0;
  }
  /// Distance of pair `pairIndex` under the current placement, exact at
  /// any value. Within d_t it is the row store's entry; beyond d_t those
  /// rows are not exact (see Instance::baseRow), so it is read off full
  /// rows instead.
  double pairDistance(int pairIndex) const;
  const Instance& instance() const noexcept { return *instance_; }

 private:
  void refreshSatisfied();
  // Marks the open pairs the current rows satisfy, in ascending order.
  void markSatisfied();

  const Instance* instance_;
  std::vector<double> weights_;  // one per pair
  msc::graph::OverlayEvaluator overlay_;  // over instance.pairNodes()
  // Pair-endpoint distance rows under the current placement.
  msc::graph::ShortcutRowStore rows_;
  ShortcutList placement_;  // the current placement, in add() order
  std::vector<std::uint8_t> pairSatisfied_;
  int satisfied_ = 0;
  double current_ = 0.0;
  // Scratch of scanGains, rebuilt by every scan.
  BallProduct balls_;
};

/// Distance of every pair of `instance` in G ∪ placement, in pair order,
/// read off `overlay` (built over instance.pairNodes()). The whole-placement
/// path of sigma.
std::vector<double> pairDistancesUnder(
    const msc::graph::OverlayEvaluator& overlay, const Instance& instance,
    const ShortcutList& placement);

/// One-shot sigma(F): builds a terminal overlay and nothing else.
double sigmaValue(const Instance& instance, const ShortcutList& placement);

}  // namespace msc::core
