#include "obs/metrics.h"

#include <algorithm>
#include <iterator>
#include <tuple>

#include "obs/trace.h"

namespace msc::obs {

namespace {

thread_local int gSpanDepth = 0;

/// The entry for `key`, default-constructed on first use.
template <typename Map>
typename Map::mapped_type& entry(Map& map, std::string_view key) {
  auto it = map.find(key);
  if (it == map.end()) it = map.try_emplace(std::string(key)).first;
  return it->second;
}

}  // namespace

Registry& Registry::global() {
  // Leaked on purpose: instrumentation sites cache Counter&/Stat& handles
  // in function-local statics, and atexit reporters may run after other
  // static destructors; a heap registry removes every ordering hazard.
  static Registry* instance = new Registry();
  return *instance;
}

std::string Sample::key() const {
  return labels.empty() ? name : name + '{' + labels + '}';
}

void Snapshot::addSamples(std::vector<Sample> more) {
  samples.insert(samples.end(), std::make_move_iterator(more.begin()),
                 std::make_move_iterator(more.end()));
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
            });
}

const Sample* Snapshot::find(std::string_view name,
                             std::string_view labels) const {
  for (const Sample& s : samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

Registry::Series& Registry::series(std::string_view name,
                                   std::string_view labels,
                                   std::string_view help, MetricType type) {
  // Unlabeled lookups (every library call site) stay allocation-free.
  std::string labeled;
  if (!labels.empty()) {
    labeled.append(name).append(1, '{').append(labels).append(1, '}');
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (!help.empty()) help_.try_emplace(std::string(name), help);
  Series& s = entry(series_, labels.empty() ? name : labeled);
  if (s.name.empty()) {
    s.name = name;
    s.labels = labels;
    s.type = type;
  }
  return s;
}

Stat& Registry::stat(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return entry(stats_, name);
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return entry(histograms_, name);
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, s] : series_) {
    s.counter.reset();
    s.gauge.reset();
  }
  for (auto& [name, s] : stats_) s.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  std::vector<Sample> samples;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, s] : series_) {
    const bool counter = s.type == MetricType::Counter;
    const auto help = help_.find(s.name);
    samples.push_back(
        {s.name, s.labels, s.type, help == help_.end() ? "" : help->second,
         counter ? static_cast<double>(s.counter.value()) : s.gauge.value()});
  }
  snap.addSamples(std::move(samples));
  for (const auto& [name, s] : stats_) {
    snap.stats.push_back({name, s.snapshot()});
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back({name, h.snapshot()});
  }
  return snap;
}

ScopedSpan::ScopedSpan(const char* name, Stat& stat)
    : ScopedSpan(name, &stat, nullptr, nullptr, Phase{}) {}

ScopedSpan::ScopedSpan(const char* name, Stat& stat, Phase phase)
    : ScopedSpan(name, &stat, nullptr, currentRequest(), phase) {}

ScopedSpan::ScopedSpan(const char* name, Histogram& histogram)
    : ScopedSpan(name, nullptr, &histogram, nullptr, Phase{}) {}

ScopedSpan::ScopedSpan(const char* name, Histogram& histogram, Phase phase)
    : ScopedSpan(name, nullptr, &histogram, currentRequest(), phase) {}

ScopedSpan::ScopedSpan(const char* name, Stat* stat, Histogram* histogram,
                       RequestContext* request, Phase phase)
    : stat_(stat), histogram_(histogram), request_(request), phase_(phase) {
  if (trace::enabled()) traceName_ = name;
  startNs_ = trace::nowNs();
  if (traceName_ != nullptr) trace::beginAt(traceName_, startNs_);
  ++gSpanDepth;
}

ScopedSpan::~ScopedSpan() {
  const std::int64_t endNs = trace::nowNs();
  const std::int64_t ns = endNs - startNs_;
  const double seconds = static_cast<double>(ns) * 1e-9;
  if (traceName_ != nullptr) trace::endAt(traceName_, endNs);
  if (stat_ != nullptr) stat_->record(seconds);
  if (histogram_ != nullptr) histogram_->record(seconds);
  if (request_ != nullptr) request_->addPhaseNs(phase_, ns);
  --gSpanDepth;
}

int ScopedSpan::depth() noexcept { return gSpanDepth; }

}  // namespace msc::obs
