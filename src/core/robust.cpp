#include "core/robust.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/gain_scan.h"
#include "core/greedy.h"

namespace msc::core {

MinEvaluator::MinEvaluator(std::vector<IncrementalEvaluator*> children,
                           std::vector<const SetFunction*> childFunctions,
                           std::string name)
    : children_(std::move(children)),
      childFunctions_(std::move(childFunctions)),
      name_(std::move(name)) {
  if (children_.empty() || children_.size() != childFunctions_.size()) {
    throw std::invalid_argument("MinEvaluator: invalid child lists");
  }
}

double MinEvaluator::value(const ShortcutList& placement) const {
  double worst = std::numeric_limits<double>::infinity();
  for (const SetFunction* fn : childFunctions_) {
    worst = std::min(worst, fn->value(placement));
  }
  return worst;
}

void MinEvaluator::reset() {
  for (IncrementalEvaluator* c : children_) c->reset();
}

double MinEvaluator::currentValue() const {
  double worst = std::numeric_limits<double>::infinity();
  for (const IncrementalEvaluator* c : children_) {
    worst = std::min(worst, c->currentValue());
  }
  return worst;
}

double MinEvaluator::gainIfAdd(const Shortcut& f) const {
  double worstAfter = std::numeric_limits<double>::infinity();
  for (const IncrementalEvaluator* c : children_) {
    worstAfter = std::min(worstAfter, c->currentValue() + c->gainIfAdd(f));
  }
  return worstAfter - currentValue();
}

void MinEvaluator::add(const Shortcut& f) {
  for (IncrementalEvaluator* c : children_) c->add(f);
}

void MinEvaluator::scanGains(const CandidateSet& candidates,
                             std::span<double> gains, int threads,
                             std::span<const std::uint8_t> skip) {
  detail::checkScanSize(candidates, gains, skip);
  // gains holds worstAfter until the final subtraction.
  std::fill(gains.begin(), gains.end(),
            std::numeric_limits<double>::infinity());
  std::vector<double> part(candidates.size());
  for (IncrementalEvaluator* c : children_) {
    const double current = c->currentValue();
    c->scanGains(candidates, part, threads, skip);
    for (std::size_t i = 0; i < part.size(); ++i) {
      gains[i] = std::min(gains[i], current + part[i]);
    }
  }
  const double current = currentValue();
  for (double& g : gains) g -= current;
}

// ------------------------------------------------------- TruncatedSum ----

TruncatedSumEvaluator::TruncatedSumEvaluator(
    std::vector<IncrementalEvaluator*> children,
    std::vector<const SetFunction*> childFunctions, double cap)
    : children_(std::move(children)),
      childFunctions_(std::move(childFunctions)),
      cap_(cap) {
  if (children_.empty() || children_.size() != childFunctions_.size()) {
    throw std::invalid_argument("TruncatedSumEvaluator: invalid child lists");
  }
  if (!(cap >= 0.0)) {
    throw std::invalid_argument("TruncatedSumEvaluator: cap must be >= 0");
  }
}

double TruncatedSumEvaluator::value(const ShortcutList& placement) const {
  double total = 0.0;
  for (const SetFunction* fn : childFunctions_) {
    total += std::min(fn->value(placement), cap_);
  }
  return total;
}

void TruncatedSumEvaluator::reset() {
  for (IncrementalEvaluator* c : children_) c->reset();
}

double TruncatedSumEvaluator::currentValue() const {
  double total = 0.0;
  for (const IncrementalEvaluator* c : children_) {
    total += std::min(c->currentValue(), cap_);
  }
  return total;
}

double TruncatedSumEvaluator::gainIfAdd(const Shortcut& f) const {
  double gain = 0.0;
  for (const IncrementalEvaluator* c : children_) {
    const double before = std::min(c->currentValue(), cap_);
    const double after = std::min(c->currentValue() + c->gainIfAdd(f), cap_);
    gain += after - before;
  }
  return gain;
}

void TruncatedSumEvaluator::add(const Shortcut& f) {
  for (IncrementalEvaluator* c : children_) c->add(f);
}

void TruncatedSumEvaluator::scanGains(const CandidateSet& candidates,
                                      std::span<double> gains, int threads,
                                      std::span<const std::uint8_t> skip) {
  detail::checkScanSize(candidates, gains, skip);
  std::fill(gains.begin(), gains.end(), 0.0);
  std::vector<double> part(candidates.size());
  for (IncrementalEvaluator* c : children_) {
    const double before = std::min(c->currentValue(), cap_);
    c->scanGains(candidates, part, threads, skip);
    for (std::size_t i = 0; i < part.size(); ++i) {
      const double after = std::min(c->currentValue() + part[i], cap_);
      gains[i] += after - before;
    }
  }
}

// ------------------------------------------------------------ SATURATE ----

SaturateResult robustSaturate(std::vector<IncrementalEvaluator*> children,
                              std::vector<const SetFunction*> childFunctions,
                              const CandidateSet& candidates,
                              const SolveOptions& options, double maxTarget) {
  if (children.empty() || children.size() != childFunctions.size()) {
    throw std::invalid_argument("robustSaturate: invalid child lists");
  }
  if (options.k < 0) {
    throw std::invalid_argument("robustSaturate: negative budget");
  }
  if (!(maxTarget >= 0.0)) {
    throw std::invalid_argument("robustSaturate: maxTarget must be >= 0");
  }

  MinEvaluator minFn(children, childFunctions, "robust");
  SaturateResult best;
  best.worstCase = minFn.value({});

  long lo = 1;
  long hi = static_cast<long>(maxTarget);
  while (lo <= hi) {
    const long c = lo + (hi - lo) / 2;
    TruncatedSumEvaluator truncated(children, childFunctions,
                                    static_cast<double>(c));
    const GreedyResult run = greedyMaximize(
        truncated, candidates,
        SolveOptions{.k = options.k, .threads = options.threads});
    best.gainEvaluations += run.gainEvaluations;
    ++best.iterations;
    const double achieved = run.value;
    const bool feasible =
        achieved >= static_cast<double>(c) *
                        static_cast<double>(children.size()) -
                    1e-9;
    // Track the best actual worst case seen, feasible or not — an
    // infeasible run can still dominate.
    const double worst = minFn.value(run.placement);
    if (worst > best.worstCase ||
        (worst == best.worstCase && best.placement.empty())) {
      best.placement = run.placement;
      best.worstCase = worst;
    }
    if (feasible) {
      best.targetReached = static_cast<double>(c);
      lo = c + 1;
    } else {
      hi = c - 1;
    }
  }
  return best;
}

}  // namespace msc::core
