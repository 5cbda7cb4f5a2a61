// Bench/report output helpers: consistent headers and instance summaries
// across all bench binaries.
#pragma once

#include <iosfwd>
#include <string>

#include "core/instance.h"

namespace msc::eval {

/// Prints a bench banner: title, what paper artifact it regenerates, and
/// the resolved bench scale. Also installs the metrics exit footer (see
/// installMetricsFooter), so every bench binary reports solver operation
/// counts when MSC_METRICS=1.
void printHeader(std::ostream& os, const std::string& title,
                 const std::string& artifact);

/// One-line instance summary (n, |E|, m, d_t).
std::string describeInstance(const msc::core::Instance& instance);

/// When MSC_METRICS=1 and the metrics registry is non-empty, prints a
/// "---- metrics ----" banner followed by the text export. No-op otherwise.
void printMetricsFooter(std::ostream& os);

/// When trace collection (obs/trace.h) is enabled and events were recorded,
/// prints a one-line "---- trace ----" summary (event/lane/drop counts) and,
/// if MSC_TRACE_OUT names a path, writes the full timeline there (Chrome
/// trace JSON, or JSONL for a .jsonl extension). No-op otherwise.
void printTraceFooter(std::ostream& os);

/// Registers an atexit hook that runs printMetricsFooter and
/// printTraceFooter on std::cout once at process exit. Idempotent; called
/// automatically by printHeader.
void installMetricsFooter();

/// Directory for generated bench artifacts (DOT layouts, trace dumps):
/// $MSC_OUT_DIR when set, else "out/" under the current working directory
/// — both gitignored. Created on first call; returns the path without a
/// trailing slash.
std::string outputDir();

}  // namespace msc::eval
