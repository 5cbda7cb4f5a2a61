// perfbench_tool: the in-process half of the benchmark (see ../README.md).
//
//   perfbench_tool gen --workload W --seed S [--tiny] --out DIR
//   perfbench_tool ref --dir DIR            (writes DIR/ref.json)
//   perfbench_tool trace --dir DIR --served FILE
//   perfbench_tool selftest
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "gen/random_geometric.h"
#include "graph/graph_io.h"

namespace {

std::map<std::string, std::string> parseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) throw std::runtime_error("unexpected argument " + a);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[a.substr(2)] = argv[++i];
    } else {
      flags[a.substr(2)] = "1";
    }
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& f, const char* key) {
  const auto it = f.find(key);
  if (it == f.end()) throw std::runtime_error(std::string("missing --") + key);
  return it->second;
}

/// The bucketed RG generator must reproduce gen::randomGeometric exactly.
int selftest() {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (const auto& [n, r] : {std::pair{300, 0.11}, std::pair{150, 0.21}}) {
      msc::gen::RandomGeometricConfig cfg;
      cfg.nodes = n;
      cfg.radius = r;
      cfg.seed = seed;
      std::ostringstream expected;
      std::ostringstream actual;
      msc::graph::writeEdgeList(expected, msc::gen::randomGeometric(cfg).graph);
      msc::graph::writeEdgeList(
          actual, perfbench::randomGeometricBucketed(n, r, seed).graph);
      if (expected.str() != actual.str()) {
        std::cerr << "selftest: bucketed RG differs at n=" << n << " seed="
                  << seed << '\n';
        return 1;
      }
    }
  }
  std::cout << "selftest ok\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::runtime_error("usage: perfbench_tool gen|ref|trace|selftest ...");
    const std::string cmd = argv[1];
    const auto flags = parseFlags(argc, argv);
    namespace json = perfbench::json;
    if (cmd == "gen") {
      const auto spec = perfbench::workloadSpec(
          need(flags, "workload"), std::stoull(need(flags, "seed")),
          flags.count("tiny") > 0);
      perfbench::generateInputs(spec, need(flags, "out"));
      return 0;
    }
    if (cmd == "ref") {
      const std::string dir = need(flags, "dir");
      perfbench::writeFile(dir + "/ref.json",
                           json::dump(perfbench::computeReference(dir)) + "\n");
      return 0;
    }
    if (cmd == "trace") {
      const json::Value served =
          json::parse(perfbench::readFile(need(flags, "served")));
      std::cout << json::dump(perfbench::tracedReplay(need(flags, "dir"), served))
                << '\n';
      return 0;
    }
    if (cmd == "selftest") return selftest();
    throw std::runtime_error("unknown subcommand " + cmd);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_tool: " << e.what() << '\n';
    return 1;
  }
}
