// Prometheus text-format (exposition format 0.0.4) renderer for a metrics
// snapshot: counters and gauges with their fixed label sets, Welford stats
// as summaries with min/max gauges, and log-linear histograms as classic
// `_bucket`/`_sum`/`_count` series. This file holds the only HELP/TYPE
// text in the repository; nothing else writes exposition lines.
//
// Registry names like "serve.cache.apsp_hits" become valid Prometheus
// metric names by sanitization (every character outside [a-zA-Z0-9_:] maps
// to '_') under an "msc_" namespace prefix, so "dijkstra.runs" is exposed
// as `msc_dijkstra_runs_total`. The output is what a scrape of
// `GET /metrics` should return — serve it via `msc_cli serve
// --metrics-listen PORT`, fetch it as the `metrics` serve command, or dump
// it after a one-shot run with `msc_cli ... --metrics-prom FILE` /
// MSC_METRICS_PROM=FILE.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace msc::obs {

/// Prometheus metric-name sanitization: characters outside [a-zA-Z0-9_:]
/// become '_', and a leading digit gets a '_' prefix. Empty input -> "_".
std::string promSanitizeName(std::string_view name);

/// Renders a snapshot in Prometheus text format:
///   - Counter "x.y"     -> `msc_x_y_total[{labels}]` (TYPE counter)
///   - Gauge "x.y"       -> `msc_x_y[{labels}]` (TYPE gauge)
///   - Stat "span.x"     -> `msc_span_x{_count,_sum}` (TYPE summary) plus
///                          `msc_span_x_min` / `_max` gauges (NaN when
///                          empty: Prometheus text allows non-finite
///                          values)
///   - Histogram "x"     -> `msc_x_bucket{le="..."}` cumulative series
///                          (only buckets where the count changes, plus the
///                          mandatory le="+Inf"), `msc_x_sum`, `msc_x_count`
///                          (TYPE histogram)
void writeProm(std::ostream& os, const Snapshot& snapshot);

/// writeProm rendered into a string.
std::string toProm(const Snapshot& snapshot);

/// Writes writeProm output to `path`. Throws std::runtime_error when the
/// file cannot be opened.
void writePromFile(const std::string& path, const Snapshot& snapshot);

}  // namespace msc::obs
