#include "eval/report.h"

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <ostream>
#include <sstream>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/prom_export.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "util/env.h"

namespace msc::eval {

void printHeader(std::ostream& os, const std::string& title,
                 const std::string& artifact) {
  installMetricsFooter();
  os << "==============================================================\n";
  os << title << '\n';
  os << "reproduces: " << artifact << '\n';
  os << msc::util::benchScaleBanner() << '\n';
  if (msc::util::envBool("MSC_METRICS", false)) {
    os << "metrics: enabled (MSC_METRICS) — footer follows the run\n";
  }
  if (msc::obs::trace::enabled()) {
    os << "trace: enabled (MSC_TRACE) — timeline summary follows the run\n";
  }
  os << "==============================================================\n";
}

std::string describeInstance(const msc::core::Instance& instance) {
  std::ostringstream os;
  os << "n=" << instance.graph().nodeCount()
     << " |E|=" << instance.graph().edgeCount()
     << " m=" << instance.pairCount()
     << " d_t=" << instance.distanceThreshold();
  return os.str();
}

void printMetricsFooter(std::ostream& os) {
  const auto& reg = msc::obs::Registry::global();
  // MSC_METRICS_PROM=FILE exports the registry as Prometheus text whether
  // or not MSC_METRICS=1 asks for the human footer. Atexit context: never
  // throw.
  const char* prom = std::getenv("MSC_METRICS_PROM");
  if (prom != nullptr && *prom != '\0') {
    try {
      msc::obs::writePromFile(prom, reg.snapshot());
      os << "prometheus metrics written to " << prom << '\n';
    } catch (const std::exception& e) {
      os << "prometheus metrics export failed: " << e.what() << '\n';
    }
  }
  if (!msc::util::envBool("MSC_METRICS", false)) return;
  const msc::obs::Snapshot snap = reg.snapshot();
  if (snap.samples.empty() && snap.stats.empty()) return;
  os << "\n---- metrics (MSC_METRICS=1) ----\n";
  msc::obs::writeText(os, snap);
}

void printTraceFooter(std::ostream& os) {
  if (!msc::obs::trace::enabled()) return;
  const auto snap = msc::obs::trace::snapshot();
  if (snap.eventCount() == 0) return;
  os << "\n---- trace (MSC_TRACE=1) ----\n";
  os << "events: " << snap.eventCount() << " across " << snap.lanes.size()
     << " thread lane(s), dropped " << snap.droppedTotal << '\n';
  const char* out = std::getenv("MSC_TRACE_OUT");
  if (out != nullptr && *out != '\0') {
    // Runs from an atexit hook: report failures, never throw.
    try {
      msc::obs::trace::writeFile(out, snap);
      os << "timeline written to " << out
         << " (load in ui.perfetto.dev or chrome://tracing)\n";
    } catch (const std::exception& e) {
      os << "trace export failed: " << e.what() << '\n';
    }
  } else {
    os << "set MSC_TRACE_OUT=trace.json to export the full timeline\n";
  }
}

void installMetricsFooter() {
  // Touch the registries before registering the handler so the (leaked)
  // registries outlive it; `static` makes repeat calls no-ops.
  static const bool installed = [] {
    (void)msc::obs::Registry::global();
    (void)msc::obs::trace::enabled();
    std::atexit([] {
      printMetricsFooter(std::cout);
      printTraceFooter(std::cout);
    });
    return true;
  }();
  (void)installed;
}

std::string outputDir() {
  const char* env = std::getenv("MSC_OUT_DIR");
  std::string dir = (env != nullptr && *env != '\0') ? env : "out";
  while (dir.size() > 1 && dir.back() == '/') dir.pop_back();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best-effort; open() reports
  return dir;
}

}  // namespace msc::eval
