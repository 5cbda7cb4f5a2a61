#include "obs/export.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace msc::obs {

namespace {

// Registry names are plain identifiers, but escape defensively so the
// document stays valid JSON no matter what a caller registers.
std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream hex;
          hex << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(c);
          out += hex.str();
        } else {
          out += c;
        }
    }
  }
  return out;
}

// JSON has no NaN/Inf literal; map them to null.
void appendNumber(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  os << std::setprecision(17) << v;
}

void appendHistogramFields(std::ostream& os, const HistogramSnapshot& h) {
  os << "{\"count\": " << h.count;
  if (h.count > 0) {
    os << ", \"sum\": ";
    appendNumber(os, h.sum);
    os << ", \"min\": ";
    appendNumber(os, h.min);
    os << ", \"max\": ";
    appendNumber(os, h.max);
    os << ", \"p50\": ";
    appendNumber(os, h.p50());
    os << ", \"p90\": ";
    appendNumber(os, h.p90());
    os << ", \"p99\": ";
    appendNumber(os, h.p99());
  }
  os << "}";
}

void appendStatFields(std::ostream& os, const util::RunningStats& s) {
  os << "{\"count\": " << s.count();
  if (s.count() > 0) {
    os << ", \"total\": ";
    appendNumber(os, s.mean() * static_cast<double>(s.count()));
    os << ", \"mean\": ";
    appendNumber(os, s.mean());
    os << ", \"min\": ";
    appendNumber(os, s.min());
    os << ", \"max\": ";
    appendNumber(os, s.max());
    os << ", \"stddev\": ";
    appendNumber(os, s.stddev());
  }
  os << "}";
}

}  // namespace

void writeText(std::ostream& os, const Snapshot& snapshot) {
  const auto& stats = snapshot.stats;
  const auto& histograms = snapshot.histograms;

  std::size_t width = 0;
  for (const auto& row : snapshot.samples) {
    width = std::max(width, row.key().size());
  }
  for (const auto& row : stats) width = std::max(width, row.name.size());
  for (const auto& row : histograms) width = std::max(width, row.name.size());

  for (const MetricType type : {MetricType::Counter, MetricType::Gauge}) {
    const char* header =
        type == MetricType::Counter ? "counters:\n" : "gauges:\n";
    for (const auto& row : snapshot.samples) {
      if (row.type != type) continue;
      os << header << "  " << std::left << std::setw(static_cast<int>(width))
         << row.key() << "  " << std::setprecision(17) << row.value << '\n';
      header = "";
    }
  }
  if (!stats.empty()) {
    os << "stats (span.* in seconds):\n";
    for (const auto& row : stats) {
      os << "  " << std::left << std::setw(static_cast<int>(width))
         << row.name << "  count=" << row.stats.count();
      if (row.stats.count() > 0) {
        os << std::setprecision(6) << " mean=" << row.stats.mean()
           << " min=" << row.stats.min() << " max=" << row.stats.max()
           << " total="
           << row.stats.mean() * static_cast<double>(row.stats.count());
      }
      os << '\n';
    }
  }
  if (!histograms.empty()) {
    os << "histograms (seconds):\n";
    for (const auto& row : histograms) {
      os << "  " << std::left << std::setw(static_cast<int>(width))
         << row.name << "  count=" << row.snapshot.count;
      if (row.snapshot.count > 0) {
        os << std::setprecision(6) << " p50=" << row.snapshot.p50()
           << " p90=" << row.snapshot.p90() << " p99=" << row.snapshot.p99()
           << " max=" << row.snapshot.max;
      }
      os << '\n';
    }
  }
}

void writeJson(std::ostream& os, const Snapshot& snapshot) {
  const auto& stats = snapshot.stats;
  const auto& histograms = snapshot.histograms;

  os << "{\n  \"schema\": \"msc.metrics.v1\",\n";
  // "counters" is always present; "gauges", like "histograms", only when
  // there is one, so documents without them keep their pre-gauge shape.
  for (const MetricType type : {MetricType::Counter, MetricType::Gauge}) {
    const char* name = type == MetricType::Counter ? "counters" : "gauges";
    bool any = false;
    for (const auto& row : snapshot.samples) {
      if (row.type != type) continue;
      if (!any) os << "  \"" << name << "\": {";
      os << (any ? "," : "") << "\n    \"" << jsonEscape(row.key()) << "\": ";
      appendNumber(os, row.value);
      any = true;
    }
    if (any) {
      os << "\n  },\n";
    } else if (type == MetricType::Counter) {
      os << "  \"counters\": {},\n";
    }
  }
  os << "  \"stats\": {";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (i) os << ',';
    os << "\n    \"" << jsonEscape(stats[i].name) << "\": ";
    appendStatFields(os, stats[i].stats);
  }
  os << (stats.empty() ? "}" : "\n  }");
  if (!histograms.empty()) {
    os << ",\n  \"histograms\": {";
    for (std::size_t i = 0; i < histograms.size(); ++i) {
      if (i) os << ',';
      os << "\n    \"" << jsonEscape(histograms[i].name) << "\": ";
      appendHistogramFields(os, histograms[i].snapshot);
    }
    os << "\n  }";
  }
  os << "\n}\n";
}

std::string toJson(const Snapshot& snapshot) {
  std::ostringstream os;
  writeJson(os, snapshot);
  return os.str();
}

void writeJsonFile(const std::string& path, const Snapshot& snapshot) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open metrics output file: " + path);
  }
  writeJson(out, snapshot);
}

}  // namespace msc::obs
