#include "core/dynamic.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/gain_scan.h"

namespace msc::core {

SumEvaluator::SumEvaluator(std::vector<IncrementalEvaluator*> children,
                           std::vector<const SetFunction*> childFunctions,
                           std::string name)
    : children_(std::move(children)),
      childFunctions_(std::move(childFunctions)),
      name_(std::move(name)) {
  if (children_.empty() || children_.size() != childFunctions_.size()) {
    throw std::invalid_argument("SumEvaluator: invalid child lists");
  }
}

double SumEvaluator::value(const ShortcutList& placement) const {
  double total = 0.0;
  for (const SetFunction* fn : childFunctions_) total += fn->value(placement);
  return total;
}

void SumEvaluator::reset() {
  for (IncrementalEvaluator* c : children_) c->reset();
}

double SumEvaluator::currentValue() const {
  double total = 0.0;
  for (const IncrementalEvaluator* c : children_) total += c->currentValue();
  return total;
}

double SumEvaluator::gainIfAdd(const Shortcut& f) const {
  double total = 0.0;
  for (const IncrementalEvaluator* c : children_) total += c->gainIfAdd(f);
  return total;
}

void SumEvaluator::add(const Shortcut& f) {
  for (IncrementalEvaluator* c : children_) c->add(f);
}

void SumEvaluator::scanGains(const CandidateSet& candidates,
                             std::span<double> gains, int threads,
                             std::span<const std::uint8_t> skip) {
  detail::checkScanSize(candidates, gains, skip);
  std::fill(gains.begin(), gains.end(), 0.0);
  std::vector<double> part(candidates.size());
  for (IncrementalEvaluator* c : children_) {
    c->scanGains(candidates, part, threads, skip);
    for (std::size_t i = 0; i < part.size(); ++i) gains[i] += part[i];
  }
}

DynamicProblem::DynamicProblem(std::vector<Instance> instances,
                               const CandidateSet& candidates)
    : instances_(std::move(instances)) {
  if (instances_.empty()) {
    throw std::invalid_argument("DynamicProblem: empty instance series");
  }
  const int n = instances_.front().graph().nodeCount();
  for (const Instance& inst : instances_) {
    if (inst.graph().nodeCount() != n) {
      throw std::invalid_argument(
          "DynamicProblem: instances must share the node universe");
    }
  }
  std::vector<IncrementalEvaluator*> sigmaKids, muKids, nuKids;
  std::vector<const SetFunction*> sigmaFns, muFns, nuFns;
  for (const Instance& inst : instances_) {
    sigmaParts_.push_back(std::make_unique<SigmaEvaluator>(inst));
    muParts_.push_back(std::make_unique<MuEvaluator>(inst, candidates));
    nuParts_.push_back(std::make_unique<NuEvaluator>(inst));
    sigmaKids.push_back(sigmaParts_.back().get());
    sigmaFns.push_back(sigmaParts_.back().get());
    muKids.push_back(muParts_.back().get());
    muFns.push_back(muParts_.back().get());
    nuKids.push_back(nuParts_.back().get());
    nuFns.push_back(nuParts_.back().get());
  }
  sigma_ = std::make_unique<SumEvaluator>(std::move(sigmaKids),
                                          std::move(sigmaFns), "sigma_dyn");
  mu_ = std::make_unique<SumEvaluator>(std::move(muKids), std::move(muFns),
                                       "mu_dyn");
  nu_ = std::make_unique<SumEvaluator>(std::move(nuKids), std::move(nuFns),
                                       "nu_dyn");
}

int DynamicProblem::totalPairCount() const noexcept {
  int total = 0;
  for (const Instance& inst : instances_) total += inst.pairCount();
  return total;
}

std::vector<double> DynamicProblem::perInstanceSigma(
    const ShortcutList& placement) const {
  std::vector<double> out;
  out.reserve(sigmaParts_.size());
  for (const auto& part : sigmaParts_) out.push_back(part->value(placement));
  return out;
}

SandwichResult DynamicProblem::sandwich(const CandidateSet& candidates,
                                        const SolveOptions& options) {
  return sandwichApproximation(*sigma_, *mu_, *nu_, *sigma_, *nu_, candidates,
                               options);
}

}  // namespace msc::core
