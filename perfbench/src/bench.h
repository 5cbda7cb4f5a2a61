// Shared declarations of the benchmark tool (perfbench_tool).
//
// The tool is the in-process half of the benchmark: it generates each
// workload's inputs from its seed, computes the library reference every
// served reply is checked against, replays a workload under tracing
// decorators for the per-layer metrics, and runs the reference kernels.
// perfbench/run.py drives it and the real `msc_cli serve` process.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "gen/point.h"
#include "serve/json.h"

namespace perfbench {

namespace json = msc::serve::json;

/// Everything that defines one workload instance. Written to meta.json by
/// `gen`, read back by every other subcommand and by run.py.
struct WorkloadSpec {
  std::string workload;
  std::uint64_t seed = 1;
  bool tiny = false;
  std::string generator;   // "rg" | "gowalla"
  int nodes = 0;           // RG node count or Gowalla user count
  double radius = 0.0;     // RG connection radius (unit square)
  double pt = 0.14;        // failure threshold p_t
  int pairsPerSet = 0;
  int pairSets = 1;        // pair_churn cycles through this many sets
  int k = 5;
  std::string mode;        // "dense" | "pair_centric"
  std::string objective;   // "sigma" | "mc_reliability"
  int worlds = 0;          // W for mc_reliability
  std::vector<std::string> algos;  // solves per cycle, in order
  int threads = 1;         // solve threads and server workers
  int oracleRowsMb = 0;    // serve --oracle-rows-mb (0 = flag omitted)
  int cacheMb = 0;         // serve --cache-mb (0 = flag omitted)
};

/// The workload's parameters at full or tiny scale; throws on unknown names.
WorkloadSpec workloadSpec(const std::string& workload, std::uint64_t seed,
                          bool tiny);
json::Value specToJson(const WorkloadSpec& spec);
WorkloadSpec specFromJson(const json::Value& v);

/// Random geometric graph, identical to gen::randomGeometric (same point
/// draws, same edges in the same insertion order, default failure model)
/// but bucketed by cell so it runs in O(n * degree) instead of O(n^2).
msc::gen::SpatialNetwork randomGeometricBucketed(int n, double radius,
                                                 std::uint64_t seed);

/// Writes graph.txt, pairs_<i>.txt and meta.json into dir.
void generateInputs(const WorkloadSpec& spec, const std::string& dir);

std::string readFile(const std::string& path);
void writeFile(const std::string& path, const std::string& text);
std::vector<msc::core::SocialPair> readPairs(const std::string& path);

/// `ref`: library reference at threads = 1 for every solve and eval the
/// workload sends; returns the ref.json document.
json::Value computeReference(const std::string& dir);

/// `trace`: in-process traced replay; returns the per-layer metrics and
/// the replay's mismatches.
json::Value tracedReplay(const std::string& dir, const json::Value& served);

/// Reference kernels.
struct CopyResult {
  double gbps = 0.0;
  std::size_t arrayBytes = 0;
  std::size_t llcBytes = 0;
};
CopyResult streamCopy(double minSeconds);
/// Textbook binary-heap Dijkstra over `sources`; ns per relaxed arc.
double heapDijkstraNsPerArc(const std::string& graphText,
                            const std::vector<int>& sources);

inline double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
