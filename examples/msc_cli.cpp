// msc_cli — command-line front end to the MSC link-placement library.
//
// Subcommands:
//   gen      generate a topology and write it as an edge list
//   pairs    sample important social pairs for a saved topology
//   solve    place shortcut edges with a chosen algorithm
//   solve-mc place shortcuts maximizing sampled multi-path reliability
//   eval     score a given placement
//   route    print the forwarding paths a placement induces
//
// Examples:
//   msc_cli gen --type rg --nodes 100 --radius 0.15 --seed 1 --out g.txt
//   msc_cli pairs --graph g.txt --pt 0.14 --m 20 --seed 1 --out pairs.txt
//   msc_cli solve --graph g.txt --pairs pairs.txt --pt 0.14 --k 6 --algo aa
//   msc_cli eval  --graph g.txt --pairs pairs.txt --pt 0.14
//                 --placement 3-41,17-88
//   msc_cli route --graph g.txt --pairs pairs.txt --pt 0.14
//                 --placement 3-41,17-88
//   msc_cli solve ... --metrics-out m.json   (solver metrics as JSON)
//   msc_cli serve --queue 64                 (JSONL solve service on stdio)
#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "core/aea.h"
#include "eval/report.h"
#include "obs/context.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/prom_export.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "core/candidates.h"
#include "core/ea.h"
#include "core/greedy.h"
#include "core/instance.h"
#include "core/random_baseline.h"
#include "core/routing.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "mc/solver.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "gen/gowalla.h"
#include "gen/random_geometric.h"
#include "gen/watts_strogatz.h"
#include "graph/apsp.h"
#include "graph/graph_io.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/args.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/table.h"
#include "wireless/link_model.h"

namespace {

using msc::util::Args;

int usage() {
  std::cerr <<
      "usage: msc_cli <gen|pairs|solve|solve-mc|eval|route|serve|version> "
      "[flags]\n"
      "  gen   --type rg|er|ba|ws|gowalla --out FILE [--nodes N] [--seed S]\n"
      "        [--radius R] [--prob P] [--attach M] [--neighbors K]\n"
      "  pairs --graph FILE --pt P --m M [--seed S] [--out FILE]\n"
      "  solve --graph FILE --pairs FILE --pt P --k K\n"
      "        [--algo aa|greedy|ea|aea|random] [--iters R] [--seed S]\n"
      "        [--progress] (live per-round ticker on stderr: round, value,\n"
      "        gain evals, rounds/s, ETA; results are unchanged)\n"
      "  solve-mc --graph FILE --pairs FILE --pt P --k K\n"
      "        [--algo greedy|sandwich] [--worlds W] [--seed S] [--progress]\n"
      "        maximize the sampled multi-path reliability sigma-hat over W\n"
      "        possible worlds (each link up with prob e^-length) instead of\n"
      "        the paper's shortest-path surrogate; deterministic at fixed\n"
      "        --seed for any --threads; see docs/ALGORITHMS.md sec. 17\n"
      "  eval  --graph FILE --pairs FILE --pt P --placement a-b,c-d,...\n"
      "  route --graph FILE --pairs FILE --pt P --placement a-b,c-d,...\n"
      "  serve [--listen SOCKET_PATH] [--queue N] [--cache-mb MB]\n"
      "        [--oracle-rows-mb MB] [--metrics-listen PORT]\n"
      "        [--slowreq-ms MS] [--slowreq-dir D]\n"
      "        long-running msc.serve.v1 JSONL solve service on stdin/stdout\n"
      "        (or a Unix socket with --listen); --metrics-listen starts a\n"
      "        plain-HTTP GET /metrics + /healthz endpoint on 127.0.0.1;\n"
      "        --oracle-rows-mb caps each pair-centric oracle's row cache\n"
      "        (LRU eviction, results bit-identical; also honoured as\n"
      "        MSC_ORACLE_ROWS_MB by every subcommand);\n"
      "        --slowreq-ms dumps a Perfetto trace of any request slower\n"
      "        than MS to --slowreq-dir (default out/); SIGINT/SIGTERM\n"
      "        drain and exit; see docs/ALGORITHMS.md sec. 12-14\n"
      "  version  print the version and the machine-readable schemas\n"
      "every subcommand also accepts --threads N (worker threads for APSP\n"
      "and solver gain scans; 0 = all hardware cores; results are identical\n"
      "for any N), --metrics-out FILE (solver metrics as JSON),\n"
      "--metrics-prom FILE (metrics as Prometheus text exposition), and\n"
      "--trace-out FILE (solver timeline as Chrome trace-event JSON for\n"
      "Perfetto/chrome://tracing; a .jsonl extension selects flat JSONL),\n"
      "and honours MSC_METRICS=1 (text metrics footer on stdout, on stderr\n"
      "for serve), MSC_METRICS_PROM=FILE (Prometheus export at exit),\n"
      "MSC_LOG=info (structured JSONL logs; MSC_LOG_FILE=PATH), and\n"
      "MSC_TRACE=1 (trace summary footer; MSC_TRACE_OUT=FILE to export)\n";
  return 2;
}

// Every subcommand accepts --metrics-out, --metrics-prom, --trace-out and
// --threads in addition to its own flags.
void checkFlags(const Args& args, std::vector<std::string> allowed) {
  allowed.push_back("metrics-out");
  allowed.push_back("metrics-prom");
  allowed.push_back("trace-out");
  allowed.push_back("threads");
  args.allowedFlags(allowed);
}

// --threads N: 0 = all hardware cores. Parsed through Args::getInt (so
// non-numeric values hit its error path) and range-checked by
// resolveThreadCount (negative values throw).
int threadsArg(const Args& args) {
  const int threads = static_cast<int>(args.getInt("threads", 1));
  msc::util::resolveThreadCount(threads);  // validates, throws on negative
  return threads;
}

msc::graph::Graph loadGraph(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open graph file: " + path);
  return msc::graph::readEdgeList(in);
}

std::vector<msc::core::SocialPair> loadPairs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open pairs file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return msc::serve::parsePairsText(text.str());
}

msc::core::Instance makeInstance(const Args& args) {
  auto g = loadGraph(args.requireString("graph"));
  auto pairs = loadPairs(args.requireString("pairs"));
  const double pt = args.getDouble("pt", 0.14);
  return msc::core::Instance::fromFailureThreshold(
      std::move(g), std::move(pairs), pt, threadsArg(args));
}

// --progress: live stderr ticker fed from solver round boundaries
// (docs/ALGORITHMS.md §18). One line per committed round — stderr, so
// stdout output and anything piping it stay byte-identical. Binding a
// request context around the solve is covered by the PR-6 contract: it
// cannot change what the solver computes.
class ProgressTicker {
 public:
  explicit ProgressTicker(bool enabled) {
    if (!enabled) return;
    reporter_.emplace(
        [](const msc::obs::ProgressSnapshot& s) {
          std::ostringstream line;
          line << "progress " << s.solver;
          if (*s.stage != '\0') line << '/' << s.stage;
          line << " round " << s.round;
          if (s.totalRounds >= 0) line << '/' << s.totalRounds;
          line << " value " << s.value << " gain_evals " << s.gainEvals;
          if (s.roundsPerSecond > 0.0) {
            line << " rounds_per_s "
                 << msc::util::formatFixed(s.roundsPerSecond, 1);
          }
          if (s.etaSeconds >= 0.0) {
            line << " eta_s " << msc::util::formatFixed(s.etaSeconds, 2);
          }
          std::cerr << line.str() << '\n';
        },
        /*everyMs=*/0.0);
    ctx_.emplace("cli");
    ctx_->setProgress(&*reporter_);
    bind_.emplace(&*ctx_);
  }

 private:
  std::optional<msc::obs::ProgressReporter> reporter_;
  std::optional<msc::obs::RequestContext> ctx_;
  std::optional<msc::obs::ScopedRequestBind> bind_;
};

int cmdGen(const Args& args) {
  checkFlags(args, {"type", "out", "nodes", "seed", "radius", "prob", "attach",
                    "neighbors"});
  threadsArg(args);  // accepted (and validated) everywhere; gen has no APSP
  const std::string type = args.getString("type", "rg");
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  const int nodes = static_cast<int>(args.getInt("nodes", 100));
  msc::graph::Graph g(0);
  if (type == "rg") {
    msc::gen::RandomGeometricConfig cfg;
    cfg.nodes = nodes;
    cfg.radius = args.getDouble("radius", 0.15);
    cfg.seed = seed;
    g = msc::gen::randomGeometricConnected(cfg, 0.9, 256).graph;
  } else if (type == "er") {
    msc::gen::ErdosRenyiConfig cfg;
    cfg.nodes = nodes;
    cfg.edgeProbability = args.getDouble("prob", 0.1);
    cfg.seed = seed;
    g = msc::gen::erdosRenyi(cfg);
  } else if (type == "ba") {
    msc::gen::BarabasiAlbertConfig cfg;
    cfg.nodes = nodes;
    cfg.attachEdges = static_cast<int>(args.getInt("attach", 2));
    cfg.seed = seed;
    g = msc::gen::barabasiAlbert(cfg);
  } else if (type == "ws") {
    msc::gen::WattsStrogatzConfig cfg;
    cfg.nodes = nodes;
    cfg.neighbors = static_cast<int>(args.getInt("neighbors", 2));
    cfg.rewireProbability = args.getDouble("prob", 0.1);
    cfg.seed = seed;
    g = msc::gen::wattsStrogatz(cfg);
  } else if (type == "gowalla") {
    msc::gen::GowallaConfig cfg;
    cfg.users = nodes == 100 ? 134 : nodes;  // default to the paper's size
    cfg.seed = seed;
    g = msc::gen::gowallaLike(cfg).graph;
  } else {
    std::cerr << "unknown --type " << type << '\n';
    return usage();
  }

  const std::string out = args.requireString("out");
  std::ofstream os(out);
  msc::graph::writeEdgeList(os, g);
  std::cout << "wrote " << g.nodeCount() << " nodes / " << g.edgeCount()
            << " edges to " << out << '\n';
  return 0;
}

int cmdPairs(const Args& args) {
  checkFlags(args, {"graph", "pt", "m", "seed", "out"});
  const auto g = loadGraph(args.requireString("graph"));
  const double pt = args.getDouble("pt", 0.14);
  const int m = static_cast<int>(args.getInt("m", 20));
  msc::util::Rng rng(static_cast<std::uint64_t>(args.getInt("seed", 1)));
  const auto dist = msc::graph::allPairsDistances(g, threadsArg(args));
  const double dt = msc::wireless::failureThresholdToDistance(pt);
  const auto pairs = msc::core::sampleImportantPairs(g, dist, m, dt, rng);

  std::ostream* os = &std::cout;
  std::ofstream file;
  if (args.has("out")) {
    file.open(args.requireString("out"));
    os = &file;
  }
  *os << "# important social pairs (u w), p_t = " << pt << "\n";
  for (const auto& p : pairs) *os << p.u << ' ' << p.w << '\n';
  if (args.has("out")) {
    std::cout << "wrote " << pairs.size() << " pairs to "
              << args.requireString("out") << '\n';
  }
  return 0;
}

int cmdSolve(const Args& args) {
  checkFlags(args,
             {"graph", "pairs", "pt", "k", "algo", "iters", "seed",
              "progress"});
  const auto inst = makeInstance(args);
  const ProgressTicker ticker(args.getBool("progress", false));
  const int k = static_cast<int>(args.getInt("k", 5));
  const std::string algo = args.getString("algo", "aa");
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  const int iters = static_cast<int>(args.getInt("iters", 500));
  const msc::core::SolveOptions options{
      .k = k, .threads = threadsArg(args), .seed = seed};
  const auto cands = msc::core::CandidateSet::allPairs(inst.graph().nodeCount());

  msc::core::ShortcutList placement;
  double value = 0.0;
  if (algo == "aa") {
    const auto aa = msc::core::sandwichApproximation(inst, cands, options);
    placement = aa.placement;
    value = aa.sigma;
    if (const auto ratio = aa.dataDependentRatio()) {
      std::cout << "data-dependent ratio sigma(F_nu)/nu(F_nu) = " << *ratio
                << '\n';
    }
  } else if (algo == "greedy") {
    msc::core::SigmaEvaluator sigma(inst);
    const auto res = msc::core::greedyMaximize(sigma, cands, options);
    placement = res.placement;
    value = res.value;
  } else if (algo == "ea") {
    msc::core::SigmaEvaluator sigma(inst);
    msc::core::EaConfig cfg;
    cfg.iterations = iters;
    const auto res = msc::core::evolutionaryAlgorithm(sigma, cands, options, cfg);
    placement = res.placement;
    value = res.value;
  } else if (algo == "aea") {
    msc::core::SigmaEvaluator sigma(inst);
    msc::core::AeaConfig cfg;
    cfg.iterations = iters;
    const auto res =
        msc::core::adaptiveEvolutionaryAlgorithm(sigma, cands, options, cfg);
    placement = res.placement;
    value = res.value;
  } else if (algo == "random") {
    msc::core::SigmaEvaluator sigma(inst);
    msc::core::RandomBaselineConfig cfg;
    cfg.repeats = iters;
    cfg.seed = seed;
    const auto res = msc::core::randomBaseline(sigma, cands, k, cfg);
    placement = res.placement;
    value = res.value;
  } else {
    std::cerr << "unknown --algo " << algo << '\n';
    return usage();
  }

  std::cout << "algorithm: " << algo << ", k = " << k << '\n';
  std::cout << "maintained: " << value << " / " << inst.pairCount() << '\n';
  std::cout << "placement:";
  std::string sep = " ";
  std::ostringstream spec;
  for (std::size_t i = 0; i < placement.size(); ++i) {
    if (i) spec << ',';
    spec << placement[i].a << '-' << placement[i].b;
  }
  std::cout << sep << (placement.empty() ? "(empty)" : spec.str()) << '\n';
  return 0;
}

// solve-mc: maximize the sampled multi-path reliability sigma-hat
// (objective "mc_reliability" in serve) instead of the shortest-path
// surrogate. Same candidate universe and output shape as `solve` so the
// two placements can be diffed directly.
int cmdSolveMc(const Args& args) {
  checkFlags(args,
             {"graph", "pairs", "pt", "k", "algo", "worlds", "seed",
              "progress"});
  const auto inst = makeInstance(args);
  const ProgressTicker ticker(args.getBool("progress", false));
  const int k = static_cast<int>(args.getInt("k", 5));
  const std::string algo = args.getString("algo", "greedy");
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  const long long worlds = args.getInt("worlds", 1024);
  if (worlds < 1 || worlds > (1 << 20)) {
    throw std::runtime_error("--worlds must be in [1, 1048576]");
  }
  const msc::core::SolveOptions options{
      .k = k, .threads = threadsArg(args), .seed = seed};
  const msc::mc::McOptions mcOptions{.worlds = static_cast<int>(worlds)};
  const auto cands =
      msc::core::CandidateSet::allPairs(inst.graph().nodeCount());

  msc::mc::McSolveResult res;
  if (algo == "greedy") {
    res = msc::mc::greedy(inst, cands, options, mcOptions);
  } else if (algo == "sandwich") {
    res = msc::mc::sandwich(inst, cands, options, mcOptions);
  } else {
    std::cerr << "unknown --algo " << algo << " (solve-mc supports "
                 "greedy|sandwich)\n";
    return usage();
  }

  std::cout << "algorithm: " << algo << " (objective mc_reliability), k = "
            << k << ", worlds = " << res.worlds << '\n';
  if (algo != "greedy") std::cout << "winner: " << res.winner << '\n';
  std::cout << "maintained (sigma-hat): " << res.sigmaHat << " / "
            << res.pairs << '\n';
  std::cout << "uncertain pairs (|R - (1-p_t)| <= half-width): "
            << res.uncertainPairs << '\n';
  std::ostringstream spec;
  for (std::size_t i = 0; i < res.placement.size(); ++i) {
    if (i) spec << ',';
    spec << res.placement[i].a << '-' << res.placement[i].b;
  }
  std::cout << "placement: " << (res.placement.empty() ? "(empty)" : spec.str())
            << '\n';
  return 0;
}

int cmdEval(const Args& args) {
  checkFlags(args, {"graph", "pairs", "pt", "placement"});
  const auto inst = makeInstance(args);
  const auto placement =
      msc::serve::parsePlacementSpec(args.requireString("placement"));
  std::cout << "sigma = " << msc::core::sigmaValue(inst, placement) << " / "
            << inst.pairCount() << '\n';
  return 0;
}

int cmdRoute(const Args& args) {
  checkFlags(args, {"graph", "pairs", "pt", "placement"});
  const auto inst = makeInstance(args);
  const auto placement =
      msc::serve::parsePlacementSpec(args.requireString("placement"));
  const auto routes = msc::core::routeAllPairs(inst, placement);
  msc::util::TableWriter table({"pair", "p_fail", "status", "path"});
  for (const auto& r : routes) {
    std::ostringstream pair;
    pair << r.pair.u << '-' << r.pair.w;
    std::ostringstream path;
    for (std::size_t i = 0; i < r.path.size(); ++i) {
      if (i) path << ' ';
      path << r.path[i];
    }
    table.addRow({pair.str(), msc::util::formatFixed(r.failure, 3),
                  r.meetsRequirement ? "ok" : "broken",
                  r.path.empty() ? "(unreachable)" : path.str()});
  }
  table.print(std::cout);
  return 0;
}

extern "C" void serveSignalHandler(int) {
  msc::serve::Server::requestShutdown();  // async-signal-safe atomic store
}

int cmdServe(const Args& args) {
  checkFlags(args, {"listen", "queue", "cache-mb", "oracle-rows-mb",
                    "metrics-listen", "slowreq-ms", "slowreq-dir"});
  msc::serve::ServerConfig config;
  config.engine.defaultThreads = threadsArg(args);
  // Flight-recorder knobs; flags win over MSC_SLOWREQ_MS / MSC_SLOWREQ_DIR.
  if (args.has("slowreq-ms")) {
    const double ms = args.getDouble("slowreq-ms", 0.0);
    if (ms < 0) throw std::runtime_error("--slowreq-ms must be >= 0");
    msc::obs::setSlowRequestThresholdMs(ms);
  }
  if (args.has("slowreq-dir")) {
    msc::obs::setSlowRequestDir(args.requireString("slowreq-dir"));
  }
  if (args.has("cache-mb")) {
    const long long mb = args.getInt("cache-mb", 256);
    if (mb < 0) throw std::runtime_error("--cache-mb must be >= 0");
    config.engine.cacheBytes = static_cast<std::size_t>(mb) << 20;
  }
  // Flag wins over the MSC_ORACLE_ROWS_MB default baked into EngineConfig.
  if (args.has("oracle-rows-mb")) {
    const long long mb = args.getInt("oracle-rows-mb", 0);
    if (mb < 0) throw std::runtime_error("--oracle-rows-mb must be >= 0");
    config.engine.oracleRowBytes = static_cast<std::size_t>(mb) << 20;
  }
  const long long queue = args.getInt("queue", 64);
  if (queue < 1) throw std::runtime_error("--queue must be >= 1");
  config.queueLimit = static_cast<std::size_t>(queue);

  // No SA_RESTART: blocked reads return EINTR so the poll loops re-check
  // the shutdown flag promptly.
  struct sigaction sa {};
  sa.sa_handler = serveSignalHandler;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  msc::serve::Server server(config);
  if (args.has("metrics-listen")) {
    const long long port = args.getInt("metrics-listen", 0);
    if (port < 0 || port > 65535) {
      throw std::runtime_error("--metrics-listen must be in [0, 65535]");
    }
    const int bound = server.startMetricsHttp(static_cast<int>(port));
    std::cerr << "telemetry: http://127.0.0.1:" << bound
              << "/metrics (and /healthz)\n";
  }
  if (args.has("listen")) {
    return server.serveUnixSocket(args.requireString("listen"));
  }
  return server.serveFd(0, 1);
}

int cmdVersion() {
  std::cout << "msc_cli (msc-linkplace) 1.0.0\n"
            << "machine-readable schemas:\n"
            << "  msc.metrics.v1  solver metrics JSON (--metrics-out, "
               "MSC_METRICS_OUT)\n"
            << "  msc.trace.v1    timeline trace JSON/JSONL (--trace-out, "
               "MSC_TRACE_OUT)\n"
            << "  msc.serve.v1    serve subcommand JSONL request/response\n"
            << "    field additions: load_graph accepts \"distance_mode\" "
               "(auto|dense|pair_centric)\n"
            << "    and echoes it; auto resolves once per graph (dense iff "
               "n <= 2048); solve/eval\n"
            << "    report the resolved \"distance_mode\", which picks "
               "the candidate universe\n"
            << "    (dense = all node pairs; pair_centric = pair-node "
               "pairs); rows are always\n"
            << "    built on demand, exact within d_t; solve reports "
               "\"candidates\"; stats\n"
            << "    exposes cache.oracles{count,bytes,point_queries,"
               "row_queries,row_builds,\n"
            << "    row_hits,alt_queries,rows_evicted,rows_resident}; "
               "solve/eval responses carry\n"
            << "    usage.oracle{point_queries,\n"
            << "    row_queries,row_builds,row_hits,rows_evicted,"
               "alt_queries,rows_evolved,\n"
            << "    rows_replayed,row_build_seconds,alt_settled_ratio{count,"
               "p50,p90,max}};\n"
            << "    solve accepts \"objective\" (sigma|mc_reliability) and "
               "\"worlds\" and echoes\n"
            << "    \"objective\"; mc_reliability responses (algo "
               "greedy|sandwich) carry\n"
            << "    worlds/uncertain_pairs (and winner for sandwich), with "
               "value = sigma-hat,\n"
            << "    the sampled multi-path maintained count (CLI: solve-mc; "
               "obs: mc.worlds\n"
            << "    counter, mc.frontier_seconds histogram);\n"
            << "    metrics/GET /metrics export every stats number as a "
               "series (msc_serve_*,\n"
            << "    msc_progress_*, msc_solver_rounds_per_second; "
               "docs/ALGORITHMS.md sec. 13);\n"
            << "    knobs: MSC_ORACLE_ROWS_MB / serve --oracle-rows-mb "
               "(bounded oracle row cache,\n"
            << "    bit-identical results);\n"
            << "    live introspection (docs/ALGORITHMS.md sec. 18): any "
               "request accepts\n"
            << "    \"deadline_seconds\" (> 0) and \"progress\":{\"every_ms\":"
               "N}; progress emits\n"
            << "    {\"event\":\"progress\",\"id\",\"seq\",\"solver\",\"stage\","
               "\"round\",\"total_rounds\",\n"
            << "    \"value\",\"gain_evals\",\"eta_seconds\","
               "\"rounds_per_second\",\"extras\"} lines\n"
            << "    before the final reply; new cmd \"cancel\" "
               "{\"target\": ID} stops a queued or\n"
            << "    executing request at its next round boundary; statuses "
               "\"cancelled\" and\n"
            << "    \"deadline_exceeded\" mark anytime results (best-so-far "
               "placement/value, plus\n"
            << "    certified_upper_bound/bound_gap for interrupted sandwich "
               "solves); usage gains\n"
            << "    deadline_seconds/cancelled/progress{every_ms,snapshots,"
               "events}; stats gains\n"
            << "    progress{snapshots,events,last_rounds_per_second} and "
               "cancellations{client,deadline}\n"
            << "  prometheus-text-0.0.4  metrics exposition (--metrics-prom, "
               "serve `metrics` cmd, GET /metrics)\n";
  return 0;
}

int dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "gen") return cmdGen(args);
  if (cmd == "pairs") return cmdPairs(args);
  if (cmd == "solve") return cmdSolve(args);
  if (cmd == "solve-mc") return cmdSolveMc(args);
  if (cmd == "eval") return cmdEval(args);
  if (cmd == "route") return cmdRoute(args);
  if (cmd == "serve") return cmdServe(args);
  std::cerr << "unknown command: " << cmd << '\n';
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "version" || cmd == "--version") return cmdVersion();
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    usage();
    return 0;
  }
  try {
    const Args args(argc - 2, argv + 2);
    // Force-enable collection before any work (instance loading already
    // runs Dijkstra/APSP) so the exports see the whole command.
    if (args.has("metrics-out") || args.has("metrics-prom")) {
      msc::obs::setEnabled(true);
    }
    if (args.has("trace-out")) msc::obs::trace::setEnabled(true);
    msc::obs::trace::setCurrentThreadName("main");

    const int rc = dispatch(cmd, args);

    // serve's stdout is the msc.serve.v1 reply stream (one JSON object per
    // line), so its export notes and footers go to stderr.
    std::ostream& notes = cmd == "serve" ? std::cerr : std::cout;
    if (rc == 0 && args.has("metrics-out")) {
      const std::string path = args.requireString("metrics-out");
      msc::obs::writeJsonFile(path, msc::obs::Registry::global().snapshot());
      notes << "wrote metrics to " << path << '\n';
    }
    if (rc == 0 && args.has("metrics-prom")) {
      const std::string path = args.requireString("metrics-prom");
      msc::obs::writePromFile(path, msc::obs::Registry::global().snapshot());
      notes << "wrote prometheus metrics to " << path << '\n';
    }
    if (rc == 0 && args.has("trace-out")) {
      const std::string path = args.requireString("trace-out");
      msc::obs::trace::writeFile(path, msc::obs::trace::snapshot());
      notes << "wrote trace to " << path << '\n';
    }
    // With MSC_METRICS=1 / MSC_TRACE=1 (and no explicit export) append the
    // human-readable footers, mirroring the bench binaries.
    if (rc == 0 && !args.has("metrics-out")) {
      msc::eval::printMetricsFooter(notes);
    }
    if (rc == 0 && !args.has("trace-out")) {
      msc::eval::printTraceFooter(notes);
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
