// Seeded input generation: the workload table and the files the server is
// fed. Nothing here is timed; run.py caches the output per
// (workload, seed, scale).
#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "gen/gowalla.h"
#include "gen/point.h"
#include "graph/apsp.h"
#include "graph/graph_io.h"
#include "core/instance.h"
#include "util/rng.h"
#include "wireless/link_model.h"

namespace perfbench {

namespace {

/// Separate, reproducible random streams per purpose.
msc::util::Rng streamRng(std::uint64_t seed, std::uint64_t purpose) {
  return msc::util::Rng(seed * 0x9E3779B97F4A7C15ULL + purpose * 0x632BE59BD9B4E019ULL + 17);
}

/// Violating pairs for a large RG graph without any shortest-path work:
/// every RG link is at least 0.35 x its Euclidean length long, so a pair
/// farther apart than d_t / 0.35 can never meet d_t in the base graph.
std::vector<msc::core::SocialPair> farPairs(
    const msc::gen::SpatialNetwork& net, int m, double distanceThreshold,
    msc::util::Rng& rng) {
  const double minEuclid = distanceThreshold / 0.35;
  const int n = net.graph.nodeCount();
  std::set<std::pair<int, int>> seen;
  std::vector<msc::core::SocialPair> out;
  for (int attempts = 0; static_cast<int>(out.size()) < m; ++attempts) {
    if (attempts > 1000 * m) throw std::runtime_error("farPairs: too few far pairs");
    const int u = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    const int w = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    if (u == w) continue;
    if (msc::gen::euclidean(net.positions[static_cast<std::size_t>(u)],
                            net.positions[static_cast<std::size_t>(w)]) <=
        minEuclid) {
      continue;
    }
    if (!seen.insert({std::min(u, w), std::max(u, w)}).second) continue;
    out.push_back({u, w});
  }
  return out;
}

std::string pairsText(const std::vector<msc::core::SocialPair>& pairs) {
  std::ostringstream os;
  for (const auto& p : pairs) os << p.u << ' ' << p.w << '\n';
  return os.str();
}

}  // namespace

msc::gen::SpatialNetwork randomGeometricBucketed(int n, double radius,
                                                 std::uint64_t seed) {
  const msc::wireless::DistanceProportionalFailure failure{0.35, 0.95};
  msc::util::Rng rng(seed);
  msc::gen::SpatialNetwork net;
  net.graph = msc::graph::Graph(n);
  net.positions.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform();
    const double y = rng.uniform();
    net.positions.push_back({x, y});
  }
  const int cells = std::max(1, static_cast<int>(1.0 / radius));
  const auto cellOf = [&](double c) {
    return std::min(cells - 1, static_cast<int>(c * cells));
  };
  std::vector<std::vector<int>> grid(static_cast<std::size_t>(cells) * cells);
  for (int i = 0; i < n; ++i) {
    const auto& p = net.positions[static_cast<std::size_t>(i)];
    grid[static_cast<std::size_t>(cellOf(p.x) * cells + cellOf(p.y))].push_back(i);
  }
  std::vector<int> near;
  for (int i = 0; i < n; ++i) {
    const auto& p = net.positions[static_cast<std::size_t>(i)];
    const int cx = cellOf(p.x);
    const int cy = cellOf(p.y);
    near.clear();
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        const int gx = cx + dx;
        const int gy = cy + dy;
        if (gx < 0 || gy < 0 || gx >= cells || gy >= cells) continue;
        for (const int j : grid[static_cast<std::size_t>(gx * cells + gy)]) {
          if (j > i) near.push_back(j);
        }
      }
    }
    std::sort(near.begin(), near.end());
    for (const int j : near) {
      const double d =
          msc::gen::euclidean(p, net.positions[static_cast<std::size_t>(j)]);
      if (d < radius) net.graph.addEdge(i, j, failure.lengthAt(d));
    }
  }
  return net;
}

WorkloadSpec workloadSpec(const std::string& workload, std::uint64_t seed,
                          bool tiny) {
  WorkloadSpec s;
  s.workload = workload;
  s.seed = seed;
  s.tiny = tiny;
  // One solve thread and one server worker: on a shared VM a parallel scan
  // waits for its slowest thread, which made wall-clock figures several
  // times noisier than a single thread's.
  s.threads = 1;
  if (workload == "dense_solve") {
    s.generator = "rg";
    s.nodes = tiny ? 120 : 512;
    s.radius = tiny ? 0.21 : 0.109;
    s.pairsPerSet = tiny ? 20 : 100;
    s.pairSets = tiny ? 2 : 4;
    s.pt = 0.05;
    s.k = tiny ? 3 : 5;
    s.mode = "dense";
    s.objective = "sigma";
    s.algos = {"greedy", "sandwich"};
  } else if (workload == "pair_churn") {
    s.generator = "rg";
    s.nodes = tiny ? 400 : 10000;
    s.radius = tiny ? 0.113 : 0.0226;
    s.pairsPerSet = tiny ? 20 : 100;
    s.pairSets = tiny ? 2 : 3;
    s.pt = 0.14;
    s.k = tiny ? 3 : 5;
    s.mode = "pair_centric";
    s.objective = "sigma";
    s.algos = {"greedy"};
    // One set's pair rows (<= 2 * pairsPerSet rows of 8n bytes) fit, two
    // do not: no thrashing within a solve, a rebuild on every new set.
    const double setMb = 2.0 * s.pairsPerSet * 8.0 * s.nodes / (1 << 20);
    s.oracleRowsMb = std::max(1, static_cast<int>(std::ceil(setMb * 1.5)));
    s.cacheMb = 4096;
  } else if (workload == "mc_solve") {
    s.generator = "gowalla";
    s.nodes = tiny ? 30 : 60;
    s.pairsPerSet = tiny ? 8 : 8;
    s.pairSets = tiny ? 2 : 24;
    s.pt = 0.23;
    s.k = 2;
    s.mode = "dense";
    s.objective = "mc_reliability";
    s.worlds = tiny ? 64 : 256;
    s.algos = {"greedy", "sandwich"};
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return s;
}

json::Value specToJson(const WorkloadSpec& s) {
  json::Object o;
  o["workload"] = s.workload;
  o["seed"] = static_cast<unsigned long long>(s.seed);
  o["tiny"] = s.tiny;
  o["generator"] = s.generator;
  o["nodes"] = s.nodes;
  o["radius"] = s.radius;
  o["p_t"] = s.pt;
  o["pairs_per_set"] = s.pairsPerSet;
  o["pair_sets"] = s.pairSets;
  o["k"] = s.k;
  o["mode"] = s.mode;
  o["objective"] = s.objective;
  o["worlds"] = s.worlds;
  json::Array algos;
  for (const auto& a : s.algos) algos.emplace_back(a);
  o["algos"] = std::move(algos);
  o["threads"] = s.threads;
  o["oracle_rows_mb"] = s.oracleRowsMb;
  o["cache_mb"] = s.cacheMb;
  return o;
}

WorkloadSpec specFromJson(const json::Value& v) {
  const auto num = [&](const char* key) { return v.find(key)->asNumber(); };
  const auto str = [&](const char* key) { return v.find(key)->asString(); };
  WorkloadSpec s;
  s.workload = str("workload");
  s.seed = static_cast<std::uint64_t>(num("seed"));
  s.tiny = v.find("tiny")->asBool();
  s.generator = str("generator");
  s.nodes = static_cast<int>(num("nodes"));
  s.radius = num("radius");
  s.pt = num("p_t");
  s.pairsPerSet = static_cast<int>(num("pairs_per_set"));
  s.pairSets = static_cast<int>(num("pair_sets"));
  s.k = static_cast<int>(num("k"));
  s.mode = str("mode");
  s.objective = str("objective");
  s.worlds = static_cast<int>(num("worlds"));
  for (const auto& a : v.find("algos")->asArray()) s.algos.push_back(a.asString());
  s.threads = static_cast<int>(num("threads"));
  s.oracleRowsMb = static_cast<int>(num("oracle_rows_mb"));
  s.cacheMb = static_cast<int>(num("cache_mb"));
  return s;
}

void generateInputs(const WorkloadSpec& spec, const std::string& dir) {
  const double dt = msc::wireless::failureThresholdToDistance(spec.pt);
  msc::gen::SpatialNetwork net;
  if (spec.generator == "rg") {
    net = randomGeometricBucketed(spec.nodes, spec.radius,
                                  streamRng(spec.seed, 1)());
  } else {
    // One fixed check-in network, as the paper's Gowalla subset is one
    // fixed dataset; the seed picks the pairs. The clustered topology makes
    // MC cost swing widely between generated networks.
    msc::gen::GowallaConfig cfg;
    cfg.users = spec.nodes;
    net = msc::gen::gowallaLike(cfg);
  }
  std::ostringstream graphText;
  msc::graph::writeEdgeList(graphText, net.graph);
  writeFile(dir + "/graph.txt", graphText.str());

  // Pairs are sampled on the graph exactly as the server will parse it.
  std::istringstream reread(graphText.str());
  const msc::graph::Graph g = msc::graph::readEdgeList(reread);
  for (int set = 0; set < spec.pairSets; ++set) {
    msc::util::Rng rng = streamRng(spec.seed, 100 + static_cast<std::uint64_t>(set));
    std::vector<msc::core::SocialPair> pairs;
    if (spec.mode == "pair_centric") {
      pairs = farPairs(net, spec.pairsPerSet, dt, rng);
    } else {
      const msc::graph::DistanceMatrix dist = msc::graph::allPairsDistances(g);
      pairs = msc::core::sampleImportantPairs(g, dist, spec.pairsPerSet, dt, rng);
    }
    writeFile(dir + "/pairs_" + std::to_string(set) + ".txt", pairsText(pairs));
  }

  writeFile(dir + "/meta.json", json::dump(specToJson(spec)) + "\n");
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<msc::core::SocialPair> readPairs(const std::string& path) {
  std::istringstream in(readFile(path));
  std::vector<msc::core::SocialPair> pairs;
  int u = 0;
  int w = 0;
  while (in >> u >> w) pairs.push_back({u, w});
  return pairs;
}

}  // namespace perfbench
