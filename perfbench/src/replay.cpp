// In-process solves: the threads = 1 library reference every served reply
// is checked against, and the traced replay that yields per-layer metrics.
#include <sched.h>

#include <algorithm>
#include <exception>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/bounds.h"
#include "core/greedy.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "graph/graph_io.h"
#include "graph/shortcut_distance.h"
#include "mc/reliability.h"
#include "mc/solver.h"
#include "mc/world_sampler.h"
#include "serve/instance_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "trace.h"
#include "wireless/link_model.h"

namespace perfbench {

namespace core = msc::core;
namespace graph = msc::graph;
namespace mc = msc::mc;
namespace serve = msc::serve;

namespace {

/// Cores this process may run on (what `nproc` prints).
int usableCores() {
  cpu_set_t cores;
  CPU_ZERO(&cores);
  if (sched_getaffinity(0, sizeof cores, &cores) != 0) return 1;
  return std::max(1, CPU_COUNT(&cores));
}

struct SolveSpec {
  std::string algo;
  std::string objective;
  int k = 5;
  int threads = 1;
  int worlds = 1024;
};

struct SolveOutcome {
  core::ShortcutList placement;
  double value = 0.0;
  std::uint64_t gainEvals = 0;
};

SolveSpec solveSpec(const WorkloadSpec& w, const std::string& algo,
                    int threads) {
  return {algo, w.objective, w.k, threads, w.worlds};
}

/// The candidate universe Engine::cmdSolve uses on the pair-centric
/// backend: every pair of pair nodes.
std::shared_ptr<const core::CandidateSet> pairNodeCandidates(
    const core::Instance& inst) {
  const auto& nodes = inst.pairNodes();
  core::ShortcutList list;
  list.reserve(nodes.size() * (nodes.size() - 1) / 2);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      list.push_back(core::Shortcut::make(nodes[i], nodes[j]));
    }
  }
  return std::make_shared<const core::CandidateSet>(std::move(list));
}

/// Exactly the library calls Engine::cmdSolve makes for these algos.
SolveOutcome solvePlain(const core::Instance& inst,
                        const core::CandidateSet& cands, const SolveSpec& s) {
  const core::SolveOptions options{.k = s.k, .threads = s.threads, .seed = 1};
  SolveOutcome out;
  if (s.objective == "mc_reliability") {
    const mc::McOptions mcOptions{.worlds = s.worlds};
    const mc::McSolveResult res =
        s.algo == "greedy" ? mc::greedy(inst, cands, options, mcOptions)
                           : mc::sandwich(inst, cands, options, mcOptions);
    out.placement = res.placement;
    out.value = res.sigmaHat;
    out.gainEvals = res.gainEvaluations;
  } else if (s.algo == "greedy") {
    core::SigmaEvaluator sigma(inst);
    const auto res = core::greedyMaximize(sigma, cands, options);
    out.placement = res.placement;
    out.value = res.value;
    out.gainEvals = res.gainEvaluations;
  } else {
    const auto res = core::sandwichApproximation(inst, cands, options);
    out.placement = res.placement;
    out.value = res.sigma;
    out.gainEvals = res.gainEvaluations;
  }
  return out;
}

// ---- traced solves ---------------------------------------------------------

/// Where a traced solve records: the span log, its parent span and request,
/// and every decorated evaluator (kept alive for their hot-call totals).
struct TraceCtx {
  SpanLog& log;
  int request = -1;
  std::vector<std::unique_ptr<TracedEvaluator>>& evaluators;

  TracedEvaluator& wrap(core::IncrementalEvaluator& inc,
                        const core::SetFunction& fn, const std::string& layer,
                        int parentSpan) {
    evaluators.push_back(std::make_unique<TracedEvaluator>(
        inc, fn, layer, log, parentSpan, request));
    return *evaluators.back();
  }
};

/// The paper's sandwich with every evaluator decorated (the 7-argument
/// overload is what the Instance convenience wrapper calls).
core::SandwichResult tracedSandwich(const core::Instance& inst,
                                    const core::CandidateSet& cands,
                                    const core::SolveOptions& options,
                                    TraceCtx& ctx, int parentSpan) {
  std::unique_ptr<core::SigmaEvaluator> sigma;
  std::unique_ptr<core::MuEvaluator> mu;
  std::unique_ptr<core::NuEvaluator> nu;
  {
    const ScopedSpan s(ctx.log, "core.sigma.build", parentSpan, ctx.request);
    sigma = std::make_unique<core::SigmaEvaluator>(inst);
  }
  {
    const ScopedSpan s(ctx.log, "core.mu.build", parentSpan, ctx.request);
    mu = std::make_unique<core::MuEvaluator>(inst, cands);
  }
  {
    const ScopedSpan s(ctx.log, "core.nu.build", parentSpan, ctx.request);
    nu = std::make_unique<core::NuEvaluator>(inst);
  }
  TracedEvaluator& ts = ctx.wrap(*sigma, *sigma, "core.sigma", parentSpan);
  TracedEvaluator& tm = ctx.wrap(*mu, *mu, "core.mu", parentSpan);
  TracedEvaluator& tn = ctx.wrap(*nu, *nu, "core.nu", parentSpan);
  return core::sandwichApproximation(ts, tm, tn, ts, tn, cands, options);
}

/// mc::greedy / mc::sandwich, step for step, with decorated evaluators.
SolveOutcome tracedMc(const core::Instance& inst,
                      const core::CandidateSet& cands, const SolveSpec& s,
                      TraceCtx& ctx, int parentSpan) {
  const core::SolveOptions options{.k = s.k, .threads = s.threads, .seed = 1};
  std::unique_ptr<mc::WorldSet> worlds;
  {
    const ScopedSpan span(ctx.log, "mc.worlds", parentSpan, ctx.request);
    worlds = std::make_unique<mc::WorldSet>(
        inst.graph(), mc::WorldConfig{.worlds = s.worlds, .seed = options.seed});
  }
  const auto makeEval = [&](mc::Objective objective, const char* name) {
    const ScopedSpan span(ctx.log, std::string(name) + ".reset", parentSpan,
                          ctx.request);
    return std::make_unique<mc::ReliabilityEvaluator>(inst, *worlds, objective);
  };
  auto hard = makeEval(mc::Objective::MaintainedCount, "mc.hard");
  TracedEvaluator& th = ctx.wrap(*hard, *hard, "mc.hard", parentSpan);
  const core::GreedyResult hardRun = core::greedyMaximize(th, cands, options);
  SolveOutcome out;
  out.gainEvals = hardRun.gainEvaluations;
  if (s.algo == "greedy") {
    out.placement = hardRun.placement;
    out.value = hard->maintainedCount();
    return out;
  }
  auto soft = makeEval(mc::Objective::TotalReliability, "mc.soft");
  TracedEvaluator& tsoft = ctx.wrap(*soft, *soft, "mc.soft", parentSpan);
  const core::GreedyResult softRun = core::greedyMaximize(tsoft, cands, options);
  core::SandwichResult surrogate;
  {
    const ScopedSpan span(ctx.log, "core.sandwich", parentSpan, ctx.request);
    surrogate = tracedSandwich(inst, cands, options, ctx, span.index());
  }
  const core::ShortcutList* contenders[] = {&hardRun.placement,
                                            &softRun.placement,
                                            &surrogate.placement};
  const core::ShortcutList* best = nullptr;
  double bestSigma = -1.0;
  for (const core::ShortcutList* c : contenders) {
    const double v = th.evaluate(*c);
    if (v > bestSigma) {
      bestSigma = v;
      best = c;
    }
  }
  th.evaluate(*best);
  out.placement = *best;
  out.value = hard->maintainedCount();
  out.gainEvals += softRun.gainEvaluations + surrogate.gainEvaluations;
  return out;
}

SolveOutcome solveTraced(const core::Instance& inst,
                         const core::CandidateSet& cands, const SolveSpec& s,
                         TraceCtx& ctx, int parentSpan) {
  const core::SolveOptions options{.k = s.k, .threads = s.threads, .seed = 1};
  if (s.objective == "mc_reliability") {
    const ScopedSpan span(ctx.log, "mc." + s.algo, parentSpan, ctx.request);
    return tracedMc(inst, cands, s, ctx, span.index());
  }
  const ScopedSpan span(ctx.log, "core." + s.algo, parentSpan, ctx.request);
  SolveOutcome out;
  if (s.algo == "greedy") {
    std::unique_ptr<core::SigmaEvaluator> sigma;
    {
      const ScopedSpan b(ctx.log, "core.sigma.build", span.index(), ctx.request);
      sigma = std::make_unique<core::SigmaEvaluator>(inst);
    }
    TracedEvaluator& ts = ctx.wrap(*sigma, *sigma, "core.sigma", span.index());
    const auto res = core::greedyMaximize(ts, cands, options);
    out.placement = res.placement;
    out.value = res.value;
    out.gainEvals = res.gainEvaluations;
  } else {
    const auto res = tracedSandwich(inst, cands, options, ctx, span.index());
    out.placement = res.placement;
    out.value = res.sigma;
    out.gainEvals = res.gainEvaluations;
  }
  return out;
}

// ---- shared setup ----------------------------------------------------------

struct Loaded {
  WorkloadSpec spec;
  std::string graphText;
  std::shared_ptr<const graph::Graph> graph;
  std::vector<std::vector<core::SocialPair>> pairSets;
  double dt = 0.0;
};

Loaded loadDir(const std::string& dir) {
  Loaded l;
  l.spec = specFromJson(json::parse(readFile(dir + "/meta.json")));
  l.graphText = readFile(dir + "/graph.txt");
  std::istringstream in(l.graphText);
  l.graph = std::make_shared<const graph::Graph>(graph::readEdgeList(in));
  for (int i = 0; i < l.spec.pairSets; ++i) {
    l.pairSets.push_back(readPairs(dir + "/pairs_" + std::to_string(i) + ".txt"));
  }
  l.dt = msc::wireless::failureThresholdToDistance(l.spec.pt);
  return l;
}

graph::DistanceMode modeOf(const WorkloadSpec& w) {
  return *graph::parseDistanceMode(w.mode);
}

std::size_t rowBudgetOf(const WorkloadSpec& w) {
  return static_cast<std::size_t>(w.oracleRowsMb) << 20;
}

json::Object outcomeJson(const SolveOutcome& o) {
  json::Object r;
  r["placement"] = serve::placementSpec(o.placement);
  r["value"] = o.value;
  return r;
}

}  // namespace

// ---- reference ---------------------------------------------------------------

json::Value computeReference(const std::string& dir) {
  const Loaded l = loadDir(dir);
  const WorkloadSpec& w = l.spec;
  // Unbounded rows: the tasks below share one oracle, and evicted rows
  // re-materialize bit-identically, so the budget cannot change a value.
  const auto oracle = graph::makeDistanceOracle(l.graph, modeOf(w), 8, 1, 0);
  const auto dense = w.mode == "dense"
                         ? std::make_shared<const core::CandidateSet>(
                               core::CandidateSet::allPairs(l.graph->nodeCount()))
                         : nullptr;

  // One task per (pair set, algo); each solves at threads = 1. Tasks run
  // side by side since they share nothing but the read-only oracle.
  struct Task {
    int set;
    std::string algo;
    json::Object result;
  };
  std::vector<Task> tasks;
  for (int set = 0; set < w.pairSets; ++set) {
    for (const auto& algo : w.algos) tasks.push_back({set, algo, {}});
  }
  double emptySigma = 0.0;
  const auto runTask = [&](Task& t) {
    const core::Instance inst(l.graph, oracle, l.pairSets[static_cast<std::size_t>(t.set)],
                              l.dt, 1);
    const auto cands = dense ? dense : pairNodeCandidates(inst);
    const SolveOutcome o = solvePlain(inst, *cands, solveSpec(w, t.algo, 1));
    t.result = outcomeJson(o);
    t.result["pairs"] = t.set;
    t.result["algo"] = t.algo;
    // The surrogate sigma of the placement: what an `eval` must answer.
    t.result["sigma"] = core::sigmaValue(inst, o.placement);
  };
  const auto runEmpty = [&] {
    const core::Instance inst(l.graph, oracle, l.pairSets[0], l.dt, 1);
    emptySigma = core::sigmaValue(inst, {});
  };
  // A failure inside a worker is handed back and rethrown after the join.
  std::vector<std::exception_ptr> errors(tasks.size() + 1);
  const auto guarded = [&errors](std::size_t slot, auto&& work) {
    return [&errors, slot, work] {
      try {
        work();
      } catch (...) {
        errors[slot] = std::current_exception();
      }
    };
  };
  std::vector<std::thread> workers;
  workers.emplace_back(guarded(0, runEmpty));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    workers.emplace_back(guarded(i + 1, [&runTask, &tasks, i] { runTask(tasks[i]); }));
  }
  for (std::thread& t : workers) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  json::Array solves;
  for (Task& t : tasks) solves.emplace_back(std::move(t.result));
  json::Object out;
  out["solves"] = std::move(solves);
  out["empty_sigma"] = emptySigma;
  return out;
}

// ---- traced replay -----------------------------------------------------------

namespace {

/// Median of a copy.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double nsToMs(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

const json::Value& member(const json::Value& v, const char* key) {
  const json::Value* m = v.find(key);
  if (!m) throw std::runtime_error(std::string("missing field ") + key);
  return *m;
}

/// An MC evaluator construction or reset span ("mc.hard.reset", ...).
bool isMcReset(const std::string& name) {
  return name.rfind("mc.", 0) == 0 && name.size() > 6 &&
         name.compare(name.size() - 6, 6, ".reset") == 0;
}

/// Per-evaluator-layer totals accumulated over the replay.
struct LayerAgg {
  std::uint64_t gainCount = 0;
  double gainNs = 0.0;
};

}  // namespace


json::Value tracedReplay(const std::string& dir, const json::Value& served) {
  const Loaded l = loadDir(dir);
  const WorkloadSpec& w = l.spec;
  const std::size_t arcs = 2 * l.graph->edgeCount();
  HotStat::clockCostNs();  // calibrate before anything is timed
  SpanLog log;
  std::vector<std::unique_ptr<TracedEvaluator>> evaluators;
  json::Object m;  // per-layer metric name -> value
  json::Array mismatches;
  const json::Array& records = member(served, "requests").asArray();

  // -- serve layer: an in-process Engine fed the workload's own lines.
  serve::EngineConfig ecfg;
  ecfg.defaultThreads = w.threads;
  if (w.cacheMb > 0) ecfg.cacheBytes = static_cast<std::size_t>(w.cacheMb) << 20;
  ecfg.oracleRowBytes = rowBudgetOf(w);
  serve::Engine engine(ecfg);
  std::string graphKey;
  for (const auto& r : records) {
    if (member(r, "cmd").asString() != "load_graph") continue;
    const auto t0 = Clock::now();
    const json::Value reply = json::parse(engine.handleLine(member(r, "line").asString()));
    m["serve.load_graph_s"] = secondsSince(t0);
    graphKey = member(reply, "graph").asString();
    break;
  }
  if (graphKey.empty()) throw std::runtime_error("served log has no load_graph");
  {
    std::string pairsText;
    for (const auto& p : l.pairSets[0]) {
      pairsText += std::to_string(p.u) + " " + std::to_string(p.w) + "\n";
    }
    json::Object lp;
    lp["id"] = 1;
    lp["cmd"] = "load_pairs";
    lp["text"] = pairsText;
    const json::Value reply = json::parse(engine.handleLine(json::dump(lp)));
    const std::string pairsKey = member(reply, "pairs").asString();
    std::vector<double> ms;
    for (int i = 0; i < 21; ++i) {  // the first call builds the oracle
      const auto t0 = Clock::now();
      const core::Instance inst =
          engine.cache().instance(graphKey, pairsKey, l.dt, w.threads);
      if (i > 0) ms.push_back(secondsSince(t0) * 1e3);
    }
    m["serve.instance_ms"] = median(ms);
  }
  {
    std::vector<double> us;
    for (int i = 0; i < 400; ++i) {
      const serve::Request req = serve::parseRequest(
          i % 2 ? R"({"id":1,"cmd":"health"})" : R"({"id":1,"cmd":"stats"})");
      const auto t0 = Clock::now();
      const std::string reply = engine.handle(req);
      us.push_back(secondsSince(t0) * 1e6);
    }
    m["serve.dispatch_us"] = median(us);
  }
  {
    // JSON throughput on the workload's own request and reply lines.
    std::size_t parseBytes = 0;
    std::size_t dumpBytes = 0;
    double parseS = 0.0;
    double dumpS = 0.0;
    for (int rep = 0; rep < 3 || parseS < 0.05; ++rep) {
      for (const auto& r : records) {
        for (const char* key : {"line", "reply"}) {
          const std::string& text = member(r, key).asString();
          auto t0 = Clock::now();
          const json::Value v = json::parse(text);
          parseS += secondsSince(t0);
          parseBytes += text.size();
          t0 = Clock::now();
          const std::string back = json::dump(v);
          dumpS += secondsSince(t0);
          dumpBytes += back.size();
        }
      }
    }
    m["serve.json_parse_MBps"] = static_cast<double>(parseBytes) / 1e6 / parseS;
    m["serve.json_dump_MBps"] = static_cast<double>(dumpBytes) / 1e6 / dumpS;
  }

  // -- the distance oracle, built as the serve cache builds it, decorated.
  std::shared_ptr<const graph::DistanceOracle> innerOracle;
  {
    const auto t0 = Clock::now();
    innerOracle = graph::makeDistanceOracle(l.graph, modeOf(w), 8, w.threads,
                                            rowBudgetOf(w));
    m["graph.apsp_s"] = w.mode == "dense" ? secondsSince(t0) : 0.0;
  }
  const auto oracle = std::make_shared<TracedOracle>(innerOracle, log);
  // trace.overhead_frac runs every solve and eval a second time, untraced,
  // on an undecorated oracle of its own that sees the same request
  // sequence, so both sides build and evict the same rows.
  const std::shared_ptr<const graph::DistanceOracle> plainOracle =
      graph::makeDistanceOracle(l.graph, modeOf(w), 8, w.threads, rowBudgetOf(w));
  std::shared_ptr<const core::CandidateSet> denseCands;
  std::vector<double> candidatesMs;
  if (w.mode == "dense") {
    const auto t0 = Clock::now();
    denseCands = std::make_shared<const core::CandidateSet>(
        core::CandidateSet::allPairs(l.graph->nodeCount()));
    candidatesMs.push_back(secondsSince(t0) * 1e3);
  }

  // -- replay every served request in order.
  struct RequestTrace {
    std::string cmd;
    std::string algo;
    int root = -1;
    int solver = -1;            // solver span (solves only)
    double latency = 0.0;       // served, client-observed
    double outside = 0.0;       // served latency - reply wall_seconds
    double rowBuildWallNs = 0;  // row builds on the blocking path
    graph::OracleStats before, after;
    std::size_t evalBegin = 0, evalEnd = 0;  // evaluators of this request
    std::uint64_t gainEvals = 0;             // as the solver counted them
  };
  std::vector<RequestTrace> traces;
  double tracedWork = 0.0;    // traced solver / value time, s
  double untracedWork = 0.0;  // the same calls undecorated, s
  std::vector<double> uncertainPairs;
  std::uint64_t altQueries = 0;
  std::vector<double> queueWaitMs;
  int set = 0;
  int lastGreedySet = -1;
  core::ShortcutList lastPlacement;
  for (std::size_t ri = 0; ri < records.size(); ++ri) {
    const json::Value& r = records[ri];
    RequestTrace t;
    t.cmd = member(r, "cmd").asString();
    if (t.cmd == "load_graph") continue;
    const json::Value reply = json::parse(member(r, "reply").asString());
    // Warm-up requests are replayed for their effect on caches but do not
    // count: the served side did not time them either.
    const bool warm = member(r, "warmup").asBool();
    t.latency = member(r, "latency_s").asNumber();
    t.outside = t.latency - member(reply, "wall_seconds").asNumber();
    const json::Value* usage = warm ? nullptr : reply.find("usage");
    if (usage) {
      if (const json::Value* ph = usage->find("phases")) {
        queueWaitMs.push_back(member(*ph, "queue_wait").asNumber() * 1e3);
      }
      if (const json::Value* o = usage->find("oracle")) {
        altQueries += static_cast<std::uint64_t>(member(*o, "alt_queries").asNumber());
      }
    }
    if (const json::Value* u = warm ? nullptr : reply.find("uncertain_pairs")) {
      uncertainPairs.push_back(u->asNumber());
    }
    const int req = static_cast<int>(ri);
    const auto note = [&](const std::string& what) {
      mismatches.emplace_back("request " + std::to_string(ri) + " (" + t.cmd +
                              "): " + what);
    };
    if (t.cmd == "load_pairs") set = static_cast<int>(member(r, "set").asNumber());
    const auto& pairs = l.pairSets[static_cast<std::size_t>(set)];
    // The same solve or eval untraced, on a fresh Instance over the plain
    // oracle. It runs after the traced one on even requests and before it
    // on odd ones, so neither side always runs second, on CPU caches and
    // allocator state the other has just warmed.
    const bool plainFirst = ri % 2 == 1;
    const auto untraced = [&] {
      if (t.cmd != "solve" && t.cmd != "eval") return;
      const json::Value request = json::parse(member(r, "line").asString());
      const core::Instance inst(l.graph, plainOracle, pairs, l.dt, w.threads);
      if (t.cmd == "solve") {
        const auto cands = denseCands ? denseCands : pairNodeCandidates(inst);
        const SolveSpec spec = solveSpec(w, member(request, "algo").asString(), w.threads);
        const auto u0 = Clock::now();
        const SolveOutcome plain = solvePlain(inst, *cands, spec);
        if (!warm) untracedWork += secondsSince(u0);
        if (serve::placementSpec(plain.placement) != member(reply, "placement").asString()) {
          note("untraced replay differs from the served placement");
        }
      } else {
        const core::SigmaEvaluator sigma(inst);
        const core::ShortcutList placement =
            serve::parsePlacementSpec(member(request, "placement").asString());
        const auto u0 = Clock::now();
        const double plain = sigma.value(placement);
        if (!warm) untracedWork += secondsSince(u0);
        if (plain != member(reply, "sigma").asNumber()) {
          note("untraced sigma differs from the served sigma");
        }
      }
    };
    if (plainFirst) untraced();
    t.root = log.open("request." + t.cmd, -1, req);
    oracle->setContext(t.root, req);
    t.before = innerOracle->stats();
    const std::int64_t prefetchWall0 = oracle->prefetchWallNs();
    const std::int64_t prefetchBuild0 = oracle->prefetchBuildNs();
    t.evalBegin = evaluators.size();
    json::Value request;
    {
      const ScopedSpan s(log, "serve.json_parse", t.root, req);
      request = json::parse(member(r, "line").asString());
    }
    if (t.cmd == "load_pairs") {
      const ScopedSpan s(log, "serve.load_pairs", t.root, req);
    } else {
      std::unique_ptr<core::Instance> inst;
      {
        const ScopedSpan s(log, "core.instance", t.root, req);
        inst = std::make_unique<core::Instance>(l.graph, oracle, pairs, l.dt,
                                                w.threads);
      }
      if (t.cmd == "solve") {
        t.algo = member(request, "algo").asString();
        std::shared_ptr<const core::CandidateSet> cands = denseCands;
        if (!cands) {
          const auto t0 = Clock::now();
          const ScopedSpan s(log, "core.candidates", t.root, req);
          cands = pairNodeCandidates(*inst);
          candidatesMs.push_back(secondsSince(t0) * 1e3);
        }
        const SolveSpec spec = solveSpec(w, t.algo, w.threads);
        TraceCtx ctx{log, req, evaluators};
        const std::int64_t s0 = nowNs();
        const SolveOutcome o = solveTraced(*inst, *cands, spec, ctx, t.root);
        if (!warm) tracedWork += static_cast<double>(nowNs() - s0) / 1e9;
        const std::string placement = serve::placementSpec(o.placement);
        if (placement != member(reply, "placement").asString()) {
          note("placement " + placement + " != served " +
               member(reply, "placement").asString());
        }
        if (o.value != member(reply, "value").asNumber()) {
          note("value " + std::to_string(o.value) + " != served " +
               std::to_string(member(reply, "value").asNumber()));
        }
        lastPlacement = o.placement;
        if (!warm && t.algo == "greedy") lastGreedySet = set;
        t.evalEnd = evaluators.size();
        t.after = innerOracle->stats();
        t.gainEvals = o.gainEvals;
        // The decorators must have seen every gain evaluation the solver
        // counted, or the per-layer times miss work.
        std::uint64_t seen = 0;
        for (std::size_t i = t.evalBegin; i < t.evalEnd; ++i) {
          seen += evaluators[i]->gains().totals().count;
        }
        if (seen != o.gainEvals) {
          note("decorators saw " + std::to_string(seen) + " of " +
               std::to_string(o.gainEvals) + " gain evaluations");
        }
      } else {
        const core::ShortcutList placement =
            serve::parsePlacementSpec(member(request, "placement").asString());
        std::unique_ptr<core::SigmaEvaluator> sigma;
        {
          const ScopedSpan s(log, "core.sigma.build", t.root, req);
          sigma = std::make_unique<core::SigmaEvaluator>(*inst);
        }
        TracedEvaluator traced(*sigma, *sigma, "core.sigma", log, t.root, req);
        const std::int64_t s0 = nowNs();
        const double v = traced.value(placement);
        if (!warm) tracedWork += static_cast<double>(nowNs() - s0) / 1e9;
        if (v != member(reply, "sigma").asNumber()) {
          note("sigma " + std::to_string(v) + " != served " +
               std::to_string(member(reply, "sigma").asNumber()));
        }
        t.after = innerOracle->stats();
        t.evalEnd = evaluators.size();
      }
    }
    {
      // The engine's per-request lifecycle (context, usage, logging, reply
      // rendering) around the command, measured live on a `health` request,
      // whose command body is empty.
      const serve::Request health = serve::parseRequest(R"({"id":1,"cmd":"health"})");
      const ScopedSpan s(log, "serve.dispatch", t.root, req);
      engine.handle(health);
    }
    {
      const ScopedSpan s(log, "serve.json_dump", t.root, req);
      const std::string back = json::dump(reply);
      (void)back;
    }
    if (t.cmd == "load_pairs") t.after = innerOracle->stats();
    log.close(t.root);
    if (!plainFirst) untraced();
    // Row builds outside prefetch bursts happened inside single
    // distancesFrom misses; their thread-summed ns count as blocking.
    const std::int64_t prefetchWall = oracle->prefetchWallNs() - prefetchWall0;
    const std::int64_t prefetchBuild = oracle->prefetchBuildNs() - prefetchBuild0;
    const auto buildNs = static_cast<std::int64_t>(t.after.rowBuildNs - t.before.rowBuildNs);
    t.rowBuildWallNs = static_cast<double>(prefetchWall + std::max<std::int64_t>(0, buildNs - prefetchBuild));
    oracle->setContext(-1, -1);
    if (!warm) traces.push_back(std::move(t));
  }
  const std::vector<Span> spans = log.snapshot();

  // -- aggregate per-layer metrics.
  const auto spanMean = [&](const std::string& name) {
    std::vector<double> ms;
    for (const Span& s : spans) {
      if (s.name == name) ms.push_back(nsToMs(s.endNs - s.startNs));
    }
    return mean(ms);
  };
  const auto childNamed = [&](int root, const std::string& prefix) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent == root && spans[i].name.rfind(prefix, 0) == 0) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  std::map<std::string, LayerAgg> layers;
  for (const auto& e : evaluators) {
    const HotStat::Totals tot = e->gains().totals();
    LayerAgg& a = layers[e->layer()];
    a.gainCount += tot.count;
    a.gainNs += tot.totalNs;
  }
  const auto nsPerGain = [&](const std::string& layer) {
    const LayerAgg& a = layers[layer];
    return a.gainCount ? a.gainNs / static_cast<double>(a.gainCount) : 0.0;
  };

  // Layer shares are taken of the traced request's own duration.
  double solveNs = 0.0, greedyNs = 0.0;
  double rowBuildGreedyNs = 0.0, coreScanNs = 0.0, mcNs = 0.0;
  double busyNs = 0.0, scanWallNs = 0.0;
  std::uint64_t rowsBuilt = 0, rowHits = 0, rowQueries = 0, rowBuildNs = 0;
  std::uint64_t gainEvals = 0;
  int solves = 0;
  double coveredNs = 0.0, latencyNs = 0.0, replayCoveredNs = 0.0;
  for (const RequestTrace& t : traces) {
    const auto covered = static_cast<double>(SpanLog::coveredNs(spans, t.root));
    replayCoveredNs += covered;
    coveredNs += covered + t.outside * 1e9;
    latencyNs += t.latency * 1e9;
    rowsBuilt += t.after.rowBuilds - t.before.rowBuilds;
    rowBuildNs += t.after.rowBuildNs - t.before.rowBuildNs;
    if (t.cmd != "solve") continue;
    ++solves;
    rowHits += t.after.rowHits - t.before.rowHits;
    rowQueries += t.after.rowQueries - t.before.rowQueries;
    const Span& root = spans[static_cast<std::size_t>(t.root)];
    solveNs += static_cast<double>(root.endNs - root.startNs);
    const int solver = childNamed(t.root, w.objective == "mc_reliability" ? "mc." : "core." + t.algo);
    // Self time of the solver span is its gain scans (every other step
    // has a child span of its own).
    const double solverSelf = solver >= 0 ? static_cast<double>(SpanLog::selfNs(spans, solver)) : 0.0;
    gainEvals += t.gainEvals;
    if (w.objective == "mc_reliability") {
      // mc layer: the solver's own scans plus worlds, resets, commits and
      // scoring of the MC evaluators.
      double ns = solverSelf;
      for (const Span& s : spans) {
        if (s.parent == solver && s.name.rfind("mc.", 0) == 0) ns += static_cast<double>(s.endNs - s.startNs);
      }
      mcNs += ns;
    } else {
      // mu's constructor scores every candidate once: a gain scan too.
      coreScanNs += solverSelf;
      for (const Span& s : spans) {
        if (s.parent == solver && s.name == "core.mu.build") {
          coreScanNs += static_cast<double>(s.endNs - s.startNs);
        }
      }
    }
    if (t.algo == "greedy") {
      greedyNs += static_cast<double>(root.endNs - root.startNs);
      rowBuildGreedyNs += t.rowBuildWallNs;
      scanWallNs += solverSelf;
      for (std::size_t i = t.evalBegin; i < t.evalEnd; ++i) {
        busyNs += evaluators[i]->gains().totals().totalNs;
      }
    }
  }

  m["graph.row_build_ms"] = solves ? static_cast<double>(rowBuildNs) / 1e6 / solves : 0.0;
  m["graph.row_build_ns_per_arc"] =
      rowsBuilt ? static_cast<double>(rowBuildNs) / static_cast<double>(rowsBuilt * arcs) : 0.0;
  m["graph.rows_built"] = solves ? static_cast<double>(rowsBuilt) / solves : 0.0;
  m["graph.row_hit_ratio"] =
      rowQueries ? static_cast<double>(rowHits) / static_cast<double>(rowQueries) : 0.0;
  m["graph.row_build_frac"] = greedyNs > 0 ? rowBuildGreedyNs / greedyNs : 0.0;
  m["graph.alt_queries"] = static_cast<double>(altQueries);
  m["core.sigma_gain_ns"] = nsPerGain("core.sigma");
  m["core.mu_gain_ns"] = nsPerGain("core.mu");
  m["core.nu_gain_ns"] = nsPerGain("core.nu");
  m["core.gain_evals"] = solves ? static_cast<double>(gainEvals) / solves : 0.0;
  m["core.commit_ms"] = spanMean("core.sigma.commit");
  m["core.scan_efficiency"] =
      scanWallNs > 0 ? busyNs / (w.threads * scanWallNs) : 0.0;
  m["core.scan_frac"] = solveNs > 0 ? coreScanNs / solveNs : 0.0;
  m["core.sigma_value_ms"] = spanMean("core.sigma.value");
  m["core.candidates_ms"] = mean(candidatesMs);
  m["mc.worlds_ms"] = spanMean("mc.worlds");
  {
    std::vector<double> ms;
    for (const Span& s : spans) {
      if (isMcReset(s.name)) ms.push_back(nsToMs(s.endNs - s.startNs));
    }
    m["mc.reset_ms"] = mean(ms);
    const LayerAgg& hard = layers["mc.hard"];
    const LayerAgg& soft = layers["mc.soft"];
    const std::uint64_t count = hard.gainCount + soft.gainCount;
    m["mc.gain_us"] =
        count ? (hard.gainNs + soft.gainNs) / static_cast<double>(count) / 1e3 : 0.0;
  }
  m["mc.uncertain_pairs"] = mean(uncertainPairs);
  m["mc.frac"] = solveNs > 0 ? mcNs / solveNs : 0.0;
  m["serve.queue_wait_ms"] = median(queueWaitMs);
  {
    std::vector<double> outside;
    for (const RequestTrace& t : traces) outside.push_back(t.outside * 1e3);
    m["serve.outside_ms"] = median(outside);
  }
  m["trace.overhead_frac"] = untracedWork > 0 ? tracedWork / untracedWork - 1.0 : 0.0;
  m["trace.coverage"] = latencyNs > 0 ? coveredNs / latencyNs : 0.0;

  // -- util: the thread pool's scaling on the last replayed greedy solve,
  // untraced: its wall at one thread over its wall at T = min(4, cores)
  // threads, solves at both counts alternated, median of three each. The
  // served runs use one thread, so this is the pool's only measurement.
  m["util.pool_speedup"] = 0.0;
  if (lastGreedySet >= 0) {
    const auto& pairs = l.pairSets[static_cast<std::size_t>(lastGreedySet)];
    const int poolThreads = std::min(4, usableCores());
    const core::Instance one(l.graph, plainOracle, pairs, l.dt, 1);
    const core::Instance many(l.graph, plainOracle, pairs, l.dt, poolThreads);
    const auto cands = denseCands ? denseCands : pairNodeCandidates(one);
    std::vector<double> wallOne, wallMany;
    std::string placements[2];
    for (int rep = 0; rep < 3; ++rep) {
      for (int side = 0; side < 2; ++side) {
        const int threads = side ? poolThreads : 1;
        const auto t0 = Clock::now();
        const SolveOutcome o =
            solvePlain(side ? many : one, *cands, solveSpec(w, "greedy", threads));
        (side ? wallMany : wallOne).push_back(secondsSince(t0));
        placements[side] = serve::placementSpec(o.placement);
      }
    }
    if (placements[0] != placements[1]) {
      mismatches.emplace_back("greedy at " + std::to_string(poolThreads) +
                              " threads differs from greedy at 1 thread");
    }
    m["util.pool_speedup"] = median(wallOne) / median(wallMany);
  }

  // -- layer kernels on the workload's own data.
  {
    // MC frontier: one sweep of every arc per pair source, W bits per
    // plane read twice and written once, during evaluator construction.
    double bytes = 0.0;
    double seconds = 0.0;
    if (w.objective == "mc_reliability") {
      std::set<int> sources;
      for (const auto& p : l.pairSets[0]) sources.insert(p.u);
      const double planeBytes = w.worlds / 8.0;
      for (const Span& s : spans) {
        if (isMcReset(s.name)) {
          bytes += static_cast<double>(sources.size()) * static_cast<double>(arcs) * 3.0 * planeBytes;
          seconds += static_cast<double>(s.endNs - s.startNs) / 1e9;
        }
      }
    }
    m["mc.frontier_GBps"] = seconds > 0 ? bytes / seconds / 1e9 : 0.0;
  }
  {
    // Zero-edge relaxation of the pair rows under the served placement.
    const core::Instance inst(l.graph, innerOracle, l.pairSets[0], l.dt, w.threads);
    const core::ShortcutList& placement = lastPlacement;
    double bytes = 0.0;
    double seconds = 0.0;
    if (!placement.empty()) {
      graph::ShortcutRowStore rows(*innerOracle, inst.pairNodes(), 1);
      const double n = l.graph->nodeCount();
      while (seconds < 0.05) {
        rows.reset();
        const auto t0 = Clock::now();
        for (const auto& f : placement) rows.applyZeroEdge(f.a, f.b);
        seconds += secondsSince(t0);
        bytes += static_cast<double>(placement.size()) *
                 (static_cast<double>(rows.rowCount()) + 1.0) * n * 24.0;
      }
    }
    m["graph.row_relax_GBps"] = seconds > 0 ? bytes / seconds / 1e9 : 0.0;
  }
  {
    std::vector<int> sources = {};
    for (const auto& p : l.pairSets[0]) {
      if (sources.size() < 64) sources.push_back(p.u);
    }
    m["graph.row_build_floor_ns_per_arc"] = heapDijkstraNsPerArc(l.graphText, sources);
  }
  const CopyResult copy = streamCopy(0.3);
  m["mem.copy_GBps"] = copy.gbps;

  // Spans are kept in memory during the run and written out at the end.
  json::Array spanOut;
  for (const Span& s : spans) {
    json::Object o;
    o["name"] = s.name;
    o["start_ns"] = static_cast<long long>(s.startNs);
    o["end_ns"] = static_cast<long long>(s.endNs);
    o["parent"] = s.parent;
    o["request"] = s.request;
    spanOut.emplace_back(std::move(o));
  }
  // Hot-call aggregates, per decorated layer.
  json::Object hot;
  const auto hotJson = [](const HotStat::Totals& t) {
    json::Object o;
    o["count"] = static_cast<unsigned long long>(t.count);
    o["timed"] = static_cast<unsigned long long>(t.timed);
    o["total_ns"] = t.totalNs;
    o["max_ns"] = static_cast<long long>(t.maxNs);
    return o;
  };
  for (const auto& [layer, agg] : layers) {
    json::Object o;
    o["count"] = static_cast<unsigned long long>(agg.gainCount);
    o["total_ns"] = agg.gainNs;
    hot[layer + ".gain"] = std::move(o);
  }
  hot["graph.distances_from"] = hotJson(oracle->rowCalls().totals());
  hot["clock_cost_ns"] = static_cast<long long>(HotStat::clockCostNs());
  json::Object traceOut;
  traceOut["spans"] = std::move(spanOut);
  traceOut["hot"] = std::move(hot);
  writeFile(dir + "/spans.json", json::dump(json::Value(std::move(traceOut))) + "\n");

  json::Object out;
  out["metrics"] = std::move(m);
  out["mismatches"] = std::move(mismatches);
  out["replayed"] = traces.size();
  out["clock_cost_ns"] = static_cast<long long>(HotStat::clockCostNs());
  // Layer time of the replayed requests alone, for a coverage taken against
  // served latencies measured around the replay.
  out["covered_s"] = replayCoveredNs / 1e9;
  json::Object copyInfo;
  copyInfo["array_bytes"] = copy.arrayBytes;
  copyInfo["llc_bytes"] = copy.llcBytes;
  out["copy"] = std::move(copyInfo);
  return out;
}

}  // namespace perfbench
