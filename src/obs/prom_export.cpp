#include "obs/prom_export.h"

#include <cctype>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/trace.h"

namespace msc::obs {

namespace {

// Prometheus value rendering: Go-style floats, with NaN/+Inf/-Inf spelled
// out (the text format, unlike JSON, has literals for them).
void appendValue(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
  } else {
    std::ostringstream tmp;
    tmp.precision(17);
    tmp << v;
    os << tmp.str();
  }
}

std::string promName(const std::string& registryName) {
  return "msc_" + promSanitizeName(registryName);
}

// Label values allow any UTF-8 but \, " and newline must be escaped
// (Prometheus text format 0.0.4).
void appendLabelValue(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    switch (*s) {
      case '\\': os << "\\\\"; break;
      case '"': os << "\\\""; break;
      case '\n': os << "\\n"; break;
      default: os << *s;
    }
  }
}

}  // namespace

std::string promSanitizeName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out.front() >= '0' && out.front() <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

void writeProm(std::ostream& os, const Snapshot& snapshot) {
  // Counters and gauges: one HELP/TYPE header per family, then one sample
  // line per label set (samples arrive grouped by name).
  const Sample* family = nullptr;
  for (const Sample& row : snapshot.samples) {
    const bool counter = row.type == MetricType::Counter;
    const std::string name = promName(row.name) + (counter ? "_total" : "");
    if (family == nullptr || family->name != row.name ||
        family->type != row.type) {
      const std::string type = counter ? "counter" : "gauge";
      os << "# HELP " << name << ' '
         << (row.help.empty() ? "msc " + type + ' ' + row.name : row.help)
         << "\n# TYPE " << name << ' ' << type << '\n';
      family = &row;
    }
    os << name;
    if (!row.labels.empty()) os << '{' << row.labels << '}';
    os << ' ';
    appendValue(os, row.value);
    os << '\n';
  }

  for (const auto& row : snapshot.stats) {
    const std::string name = promName(row.name);
    const auto& s = row.stats;
    os << "# HELP " << name << " msc stat " << row.name
       << " (span.* in seconds)\n";
    os << "# TYPE " << name << " summary\n";
    os << name << "_count " << s.count() << '\n';
    os << name << "_sum ";
    appendValue(os, s.count() > 0 ? s.mean() * static_cast<double>(s.count())
                                  : 0.0);
    os << '\n';
    // A stat with no samples has no min/max; omit the gauges rather than
    // print NaN — a freshly started server must never serve a page whose
    // very first scrape some collectors reject wholesale.
    if (s.count() > 0) {
      os << "# TYPE " << name << "_min gauge\n";
      os << name << "_min ";
      appendValue(os, s.min());
      os << '\n';
      os << "# TYPE " << name << "_max gauge\n";
      os << name << "_max ";
      appendValue(os, s.max());
      os << '\n';
    }
  }

  for (const auto& row : snapshot.histograms) {
    const std::string name = promName(row.name);
    const HistogramSnapshot& snap = row.snapshot;
    os << "# HELP " << name << " msc histogram " << row.name << " (seconds)\n";
    os << "# TYPE " << name << " histogram\n";
    // Cumulative buckets; boundaries whose count never moved are elided
    // (any subset of boundaries is a valid histogram as long as the series
    // is cumulative and le="+Inf" closes it).
    std::uint64_t cumulative = 0;
    // The overflow bucket has upper bound +Inf and is covered by the
    // closing le="+Inf" line, so the loop stops one short of it.
    for (std::size_t i = 0; i + 1 < snap.buckets.size(); ++i) {
      if (snap.buckets[i] == 0) continue;
      cumulative += snap.buckets[i];
      os << name << "_bucket{le=\"";
      appendValue(os, HistogramSnapshot::upperBound(i));
      os << "\"} " << cumulative << '\n';
    }
    os << name << "_bucket{le=\"+Inf\"} " << snap.count << '\n';
    os << name << "_sum ";
    appendValue(os, snap.sum);
    os << '\n';
    os << name << "_count " << snap.count << '\n';
  }

  // Per-lane trace drop counters: silent ring-buffer loss (PR 3's per-lane
  // `dropped`) made visible to monitoring. Emitted whenever any thread has
  // ever recorded a trace event, zeros included, so a rate() query shows a
  // flat 0 instead of an absent series until the first loss.
  const std::vector<trace::LaneDropCount> drops = trace::laneDropCounts();
  if (!drops.empty()) {
    os << "# HELP msc_trace_dropped_events_total trace events overwritten "
          "by ring-buffer wrap, per thread lane\n";
    os << "# TYPE msc_trace_dropped_events_total counter\n";
    for (const trace::LaneDropCount& lane : drops) {
      os << "msc_trace_dropped_events_total{lane=\"" << lane.tid << '"';
      if (lane.threadName != nullptr) {
        os << ",thread=\"";
        appendLabelValue(os, lane.threadName);
        os << '"';
      }
      os << "} " << lane.dropped << '\n';
    }
  }
}

std::string toProm(const Snapshot& snapshot) {
  std::ostringstream os;
  writeProm(os, snapshot);
  return os.str();
}

void writePromFile(const std::string& path, const Snapshot& snapshot) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open prometheus output file: " + path);
  }
  writeProm(out, snapshot);
}

}  // namespace msc::obs
