#include "obs/metrics.h"

#include <algorithm>
#include <iterator>
#include <tuple>

#include "obs/trace.h"
#include "util/env.h"

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

Registry::Registry() { enabled_.store(util::envBool("MSC_METRICS", false)); }

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

ScopedSpan::ScopedSpan(const char* name) {
  Registry& reg = Registry::global();
  const bool metricsOn = reg.enabled();
  const bool traceOn = trace::enabled();
  if (!metricsOn && !traceOn) return;
  if (metricsOn) {
    std::string key("span.");
    key.append(name);
    stat_ = &reg.stat(key);
    start_ = std::chrono::steady_clock::now();
  }
  if (traceOn) {
    traceName_ = name;
    trace::begin(name);
  }
  ++gSpanDepth;
}

ScopedSpan::~ScopedSpan() {
  if (stat_ == nullptr && traceName_ == nullptr) return;
  if (traceName_ != nullptr) trace::end(traceName_);
  if (stat_ != nullptr) {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    stat_->record(std::chrono::duration<double>(elapsed).count());
  }
  --gSpanDepth;
}

int ScopedSpan::depth() noexcept { return gSpanDepth; }

}  // namespace msc::obs
