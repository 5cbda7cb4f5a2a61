// Renderers for a metrics snapshot: a human-readable text table for
// bench footers and a machine-readable JSON document (schema
// "msc.metrics.v1") for `msc_cli solve --metrics-out` and trajectory
// tooling.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.h"

namespace msc::obs {

/// Aligned text dump: every counter, then every gauge, then every stat
/// with count/mean/min/max, then every histogram with
/// count/p50/p90/p99/max.
/// Stats named "span.*" and all histograms hold seconds.
void writeText(std::ostream& os, const Snapshot& snapshot);

/// JSON document:
///   {
///     "schema": "msc.metrics.v1",
///     "counters": {"dijkstra.runs": 12,
///                  "serve.cancellations{reason=\"client\"}": 0, ...},
///     "gauges": {"solver.rounds_per_second": 850.2, ...},
///     "stats": {"span.sandwich.total":
///               {"count": 1, "total": 0.01, "mean": 0.01,
///                "min": 0.01, "max": 0.01, "stddev": 0.0}, ...},
///     "histograms": {"serve.request_seconds":
///                    {"count": 9, "sum": 0.2, "min": 0.01, "max": 0.05,
///                     "p50": 0.02, "p90": 0.04, "p99": 0.05}, ...}
///   }
/// Empty stats/histograms emit only {"count": 0}; non-finite values render
/// as null so the output is always standard JSON. A labeled series is
/// keyed `name{labels}`. The "gauges" and "histograms" keys are omitted
/// entirely when none is registered, so older msc.metrics.v1 consumers see
/// an unchanged document.
void writeJson(std::ostream& os, const Snapshot& snapshot);

/// writeJson rendered into a string.
std::string toJson(const Snapshot& snapshot);

/// Writes writeJson output to `path`. Throws std::runtime_error when the
/// file cannot be opened.
void writeJsonFile(const std::string& path, const Snapshot& snapshot);

}  // namespace msc::obs
