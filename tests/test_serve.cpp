// Serve subsystem: JSON robustness, protocol parse/error paths, instance
// cache hits/eviction, engine bit-identity with the direct solver path,
// queue backpressure, graceful-shutdown drain, and service telemetry
// (health probes, metrics command, latency histograms, HTTP listener).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <functional>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/context.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/prom_export.h"
#include "obs/trace.h"

#include "core/candidates.h"
#include "core/greedy.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "graph/graph_io.h"
#include "helpers.h"
#include "serve/instance_cache.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/cancel.h"
#include "wireless/link_model.h"

namespace {

namespace json = msc::serve::json;
using msc::serve::Engine;
using msc::serve::EngineConfig;
using msc::serve::InstanceCache;
using msc::serve::Server;
using msc::serve::ServerConfig;

// ------------------------------------------------------------------ JSON ---

TEST(ServeJson, RoundTrip) {
  const auto v = json::parse(
      R"({"b":true,"a":[1,2.5,"x\n\"y"],"n":null,"z":{"k":-3}})");
  ASSERT_TRUE(v.isObject());
  EXPECT_EQ(json::dump(v),
            R"({"a":[1,2.5,"x\n\"y"],"b":true,"n":null,"z":{"k":-3}})");
  EXPECT_TRUE(v.find("b")->asBool());
  EXPECT_DOUBLE_EQ(v.find("a")->asArray()[1].asNumber(), 2.5);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ServeJson, IntegralNumbersRoundTripWithoutDecimalPoint) {
  EXPECT_EQ(json::dump(json::Value(42)), "42");
  EXPECT_EQ(json::dump(json::Value(static_cast<std::size_t>(1) << 40)),
            "1099511627776");
  EXPECT_EQ(json::dump(json::parse("-7")), "-7");
}

TEST(ServeJson, ParseErrorsCarryByteOffset) {
  EXPECT_THROW(json::parse("{\"a\":}"), json::ParseError);
  EXPECT_THROW(json::parse("[1,2"), json::ParseError);
  EXPECT_THROW(json::parse("\"unterminated"), json::ParseError);
  EXPECT_THROW(json::parse("{} trailing"), json::ParseError);
  EXPECT_THROW(json::parse("nul"), json::ParseError);
  try {
    json::parse("{\"a\":tru}");
    FAIL() << "expected ParseError";
  } catch (const json::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(ServeJson, NestingBombIsRejectedNotStackOverflow) {
  const std::string bomb(100000, '[');
  EXPECT_THROW(json::parse(bomb), json::ParseError);
  std::string deepObj;
  for (int i = 0; i < 5000; ++i) deepObj += "{\"a\":";
  EXPECT_THROW(json::parse(deepObj), json::ParseError);
}

// -------------------------------------------------------------- protocol ---

TEST(ServeProtocol, ParseRequestErrorPaths) {
  EXPECT_THROW(msc::serve::parseRequest("{nope"), msc::serve::ProtocolError);
  EXPECT_THROW(msc::serve::parseRequest("[1,2]"), msc::serve::ProtocolError);
  EXPECT_THROW(msc::serve::parseRequest("{\"id\":1}"),
               msc::serve::ProtocolError);
  EXPECT_THROW(msc::serve::parseRequest("{\"cmd\":17}"),
               msc::serve::ProtocolError);
  EXPECT_THROW(msc::serve::parseRequest("{\"cmd\":\"stats\",\"id\":[1]}"),
               msc::serve::ProtocolError);
}

TEST(ServeProtocol, UnknownCmdErrorStillEchoesId) {
  try {
    msc::serve::parseRequest("{\"id\":8,\"cmd\":\"frobnicate\"}");
    FAIL() << "expected ProtocolError";
  } catch (const msc::serve::ProtocolError& e) {
    EXPECT_EQ(e.id, json::Value(8));
    const auto resp = json::parse(msc::serve::errorResponse(e.id, e.what()));
    EXPECT_EQ(resp.find("id")->asNumber(), 8);
    EXPECT_EQ(resp.find("status")->asString(), "error");
    EXPECT_EQ(resp.find("schema")->asString(), "msc.serve.v1");
  }
}

TEST(ServeProtocol, PlacementSpecRoundTrip) {
  const auto p = msc::serve::parsePlacementSpec("3-41,17-88");
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(msc::serve::placementSpec(p), "3-41,17-88");
  EXPECT_TRUE(msc::serve::parsePlacementSpec("").empty());
  EXPECT_THROW(msc::serve::parsePlacementSpec("3-"),
               msc::serve::ProtocolError);
  EXPECT_THROW(msc::serve::parsePlacementSpec("abc"),
               msc::serve::ProtocolError);
  EXPECT_THROW(msc::serve::parsePlacementSpec("1-2x,3-4"),
               msc::serve::ProtocolError);
}

// ---------------------------------------------------------------- cache ----

TEST(ServeCache, ContentKeysAreStableAndDeduplicated) {
  InstanceCache cache(0);
  const auto k1 = cache.putGraph(msc::test::lineGraph(6));
  const auto k2 = cache.putGraph(msc::test::lineGraph(6));
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(k1[0], 'g');
  EXPECT_NE(k1, cache.putGraph(msc::test::lineGraph(7)));
  const auto p1 = cache.putPairs({{0, 5}});
  EXPECT_EQ(p1, cache.putPairs({{0, 5}}));
  EXPECT_EQ(p1[0], 'p');
}

TEST(ServeCache, ApspMemoizedAcrossInstances) {
  InstanceCache cache(0);
  const auto g = cache.putGraph(msc::test::lineGraph(8));
  const auto p = cache.putPairs({{0, 7}});
  bool hit = true;
  const auto a = cache.instance(g, p, 10.0, 1, &hit);
  EXPECT_FALSE(hit);
  const auto b = cache.instance(g, p, 10.0, 4, &hit);
  EXPECT_TRUE(hit);
  // Shared oracle, and equal to a fresh direct compute.
  EXPECT_EQ(&a.distanceOracle(), &b.distanceOracle());
  EXPECT_DOUBLE_EQ(a.baseDistance({0, 7}), 7.0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.apspComputes, 1u);
  EXPECT_EQ(stats.apspHits, 1u);
}

TEST(ServeCache, UnknownKeyThrows) {
  InstanceCache cache(0);
  const auto p = cache.putPairs({{0, 1}});
  EXPECT_THROW(cache.instance("g0000000000000000", p, 1.0, 1),
               std::runtime_error);
  EXPECT_THROW(cache.candidates("g0000000000000000"), std::runtime_error);
}

TEST(ServeCache, EvictsLruUnderByteBudgetAndReloadRecovers) {
  // Charges: A 696, the pairs 72, A's two rows 320, B 800, B's two rows
  // 336 bytes. Rows are charged as soon as an instance has built them, so
  // A + pairs + A's rows + B (1888) fit and B's rows on top (2224) do not:
  // B's oracle pushes A out.
  InstanceCache cache(2048);
  const auto gA = cache.putGraph(msc::test::lineGraph(12));
  const auto p = cache.putPairs({{0, 11}});
  (void)cache.instance(gA, p, 100.0, 1);  // memoize the oracle for A
  const auto gB = cache.putGraph(msc::test::cycleGraph(13));
  (void)cache.instance(gB, p, 100.0, 1);  // B's oracle pushes A out
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_THROW(cache.instance(gA, p, 100.0, 1), std::runtime_error);
  // Re-loading the same content yields the same key and works again.
  EXPECT_EQ(cache.putGraph(msc::test::lineGraph(12)), gA);
  bool hit = true;
  (void)cache.instance(gA, p, 100.0, 1, &hit);
  EXPECT_FALSE(hit);  // the oracle was evicted with the entry
  EXPECT_LE(cache.stats().bytesUsed, 2 * 2048u);  // keep-entry slack only
}

TEST(ServeCache, OverBudgetEntryJustTouchedIsNotEvicted) {
  InstanceCache cache(64);  // smaller than any single entry
  const auto g = cache.putGraph(msc::test::lineGraph(10));
  // The graph alone blows the budget but must stay usable for its request.
  EXPECT_NE(cache.findGraph(g), nullptr);
  const auto p = cache.putPairs({{0, 9}});
  // The just-loaded pair set is protected; the colder graph entry goes.
  EXPECT_NE(cache.findPairs(p), nullptr);
  EXPECT_EQ(cache.findGraph(g), nullptr);
  EXPECT_GT(cache.stats().evictions, 0u);
}

// ---------------------------------------------------------------- engine ---

std::string graphText(const msc::graph::Graph& g) {
  std::ostringstream os;
  msc::graph::writeEdgeList(os, g);
  return os.str();
}

std::string jsonEscape(const std::string& raw) {
  std::string out;
  for (const char c : raw) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

json::Value loadFixture(Engine& engine, const msc::graph::Graph& g,
                        const std::string& pairsText,
                        const std::string& distanceMode = "auto") {
  const auto r1 = json::parse(engine.handleLine(
      "{\"cmd\":\"load_graph\",\"as\":\"g\",\"distance_mode\":\"" +
      distanceMode + "\",\"text\":\"" + jsonEscape(graphText(g)) + "\"}"));
  EXPECT_EQ(r1.find("status")->asString(), "ok");
  const auto r2 = json::parse(engine.handleLine(
      "{\"cmd\":\"load_pairs\",\"as\":\"p\",\"text\":\"" +
      jsonEscape(pairsText) + "\"}"));
  EXPECT_EQ(r2.find("status")->asString(), "ok");
  return r1;
}

class ServeEngineBitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(ServeEngineBitIdentity, GreedyAndSandwichMatchDirectPath) {
  const int threads = GetParam();
  const double pt = 0.14;
  auto g = msc::test::randomGraph(40, 0.1, 7);
  Engine engine;
  loadFixture(engine, g, "0 39\n3 31\n5 22\n8 17\n1 30\n2 28\n");

  const std::vector<msc::core::SocialPair> pairs = {{0, 39}, {3, 31}, {5, 22},
                                                    {8, 17}, {1, 30}, {2, 28}};
  const auto inst = msc::core::Instance::fromFailureThreshold(
      std::move(g), pairs, pt, threads);
  const auto cands =
      msc::core::CandidateSet::allPairs(inst.graph().nodeCount());
  const msc::core::SolveOptions options{.k = 3, .threads = threads, .seed = 1};

  {
    msc::core::SigmaEvaluator sigma(inst);
    const auto direct = msc::core::greedyMaximize(sigma, cands, options);
    const auto resp = json::parse(engine.handleLine(
        "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.14,"
        "\"algo\":\"greedy\",\"k\":3,\"threads\":" +
        std::to_string(threads) + ",\"seed\":1}"));
    ASSERT_EQ(resp.find("status")->asString(), "ok");
    EXPECT_EQ(resp.find("placement")->asString(),
              msc::serve::placementSpec(direct.placement));
    EXPECT_DOUBLE_EQ(resp.find("value")->asNumber(), direct.value);
    EXPECT_EQ(static_cast<std::size_t>(resp.find("gain_evals")->asNumber()),
              direct.gainEvaluations);
  }
  {
    const auto direct = msc::core::sandwichApproximation(inst, cands, options);
    const auto resp = json::parse(engine.handleLine(
        "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.14,"
        "\"algo\":\"sandwich\",\"k\":3,\"threads\":" +
        std::to_string(threads) + ",\"seed\":1}"));
    ASSERT_EQ(resp.find("status")->asString(), "ok");
    EXPECT_EQ(resp.find("placement")->asString(),
              msc::serve::placementSpec(direct.placement));
    EXPECT_DOUBLE_EQ(resp.find("value")->asNumber(), direct.sigma);
    EXPECT_EQ(resp.find("winner")->asString(), direct.winner);
    EXPECT_EQ(resp.find("apsp_cache")->asString(), "hit");  // 2nd solve
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ServeEngineBitIdentity,
                         ::testing::Values(1, 4));

// Under objective "mc_reliability", "aa" spells "sandwich" as it does for
// the surrogate objective, and a rejected algo's error names all three.
TEST(ServeEngine, McReliabilityAaRepliesAsSandwich) {
  Engine engine;
  loadFixture(engine, msc::test::randomGraph(20, 0.15, 7),
              "0 19\n1 17\n2 15\n");
  const auto solve = [&](const std::string& algo) {
    return json::parse(
               engine.handleLine(
                   "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\","
                   "\"p_t\":0.3,\"objective\":\"mc_reliability\",\"algo\":\"" +
                   algo + "\",\"worlds\":128,\"k\":2,\"seed\":1}"))
        .asObject();
  };
  auto sandwich = solve("sandwich");
  auto aa = solve("aa");
  ASSERT_EQ(sandwich.at("status").asString(), "ok");
  EXPECT_EQ(aa.at("algo").asString(), "aa");
  // Identical up to the echoed algo and timing.
  for (auto* obj : {&sandwich, &aa}) {
    obj->erase("algo");
    obj->erase("wall_seconds");
    obj->erase("apsp_cache");
    obj->erase("usage");
  }
  EXPECT_EQ(json::dump(json::Value(sandwich)), json::dump(json::Value(aa)));

  const auto ea = solve("ea");
  EXPECT_EQ(ea.at("status").asString(), "error");
  EXPECT_NE(ea.at("error").asString().find("greedy|sandwich|aa"),
            std::string::npos)
      << ea.at("error").asString();
}

// --------------------------- request-scoped observability (§14) -----------

std::string readWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class ServeEngineObservability : public ::testing::TestWithParam<int> {};

// The determinism contract: profiling + tracing must not change a single
// solver decision. Same solve, one plain engine, one with MSC_TRACE-style
// tracing on and "profile": true — responses byte-identical up to timing.
TEST_P(ServeEngineObservability, ProfiledTracedSolveBitIdenticalToPlain) {
  const int threads = GetParam();
  const auto g = msc::test::randomGraph(36, 0.12, 9);
  const std::string pairsText = "0 35\n3 30\n5 22\n8 17\n";
  const std::string solve =
      "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.14,"
      "\"algo\":\"greedy\",\"k\":3,\"threads\":" +
      std::to_string(threads) + ",\"seed\":1";

  Engine plainEngine;
  loadFixture(plainEngine, g, pairsText);
  auto plain = json::parse(plainEngine.handleLine(solve + "}")).asObject();
  ASSERT_EQ(plain.at("status").asString(), "ok");

  const bool wasTracing = msc::obs::trace::enabled();
  msc::obs::trace::setEnabled(true);
  msc::obs::trace::clearAll();
  const std::string savedDir = msc::obs::slowRequestDir();
  const std::string dumpDir = "serve_obs_profile_" + std::to_string(::getpid());
  msc::obs::setSlowRequestDir(dumpDir);
  Engine tracedEngine;
  loadFixture(tracedEngine, g, pairsText);
  auto traced =
      json::parse(tracedEngine.handleLine(solve + ",\"profile\":true}"))
          .asObject();
  msc::obs::trace::setEnabled(wasTracing);
  msc::obs::setSlowRequestDir(savedDir);
  ASSERT_EQ(traced.at("status").asString(), "ok");

  // profile:true must have produced a dump; clean it up before asserting.
  const auto* usage = traced.at("usage").find("trace_file");
  ASSERT_NE(usage, nullptr);
  std::remove(usage->asString().c_str());
  ::rmdir(dumpDir.c_str());

  // Everything except timing/attribution must match byte for byte —
  // placement, value, gain_evals, apsp_cache (both engines are cold).
  for (auto* obj : {&plain, &traced}) {
    obj->erase("wall_seconds");
    obj->erase("usage");
  }
  EXPECT_EQ(json::dump(json::Value(plain)), json::dump(json::Value(traced)));
}

// Per-request attribution invariant: the four usage phases sum to
// queue_wait + wall_seconds (finalize() pins "other" to the remainder; on
// the direct handleLine path queue_wait is 0, and greedy's apsp/round_scan
// are measured on the executing thread so they never exceed wall time).
TEST_P(ServeEngineObservability, UsagePhasesSumToWallSeconds) {
  const int threads = GetParam();
  Engine engine;
  loadFixture(engine, msc::test::randomGraph(40, 0.1, 7),
              "0 39\n3 31\n5 22\n8 17\n");
  const auto resp = json::parse(engine.handleLine(
      "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.14,"
      "\"algo\":\"greedy\",\"k\":3,\"threads\":" +
      std::to_string(threads) + ",\"seed\":1}"));
  ASSERT_EQ(resp.find("status")->asString(), "ok");

  const auto* usage = resp.find("usage");
  ASSERT_NE(usage, nullptr);
  EXPECT_GE(usage->find("cpu_seconds")->asNumber(), 0.0);
  EXPECT_EQ(usage->find("gain_evals")->asNumber(),
            resp.find("gain_evals")->asNumber());
  EXPECT_EQ(usage->find("apsp_cache")->asString(), "miss");  // cold engine
  EXPECT_EQ(usage->find("trace_file"), nullptr);  // no profile, no dump

  const auto* phases = usage->find("phases");
  ASSERT_NE(phases, nullptr);
  double sum = 0.0;
  for (const char* name : {"queue_wait", "apsp", "round_scan", "other"}) {
    const auto* phase = phases->find(name);
    ASSERT_NE(phase, nullptr) << name;
    EXPECT_GE(phase->asNumber(), 0.0) << name;
    sum += phase->asNumber();
  }
  EXPECT_DOUBLE_EQ(phases->find("queue_wait")->asNumber(), 0.0);
  EXPECT_GT(phases->find("apsp")->asNumber(), 0.0);  // cold APSP build
  EXPECT_NEAR(sum, resp.find("wall_seconds")->asNumber(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Threads, ServeEngineObservability,
                         ::testing::Values(1, 4));

/// The one sample histogram `name` holds since the last resetAll().
double singleHistogramSample(const std::string& name) {
  for (const auto& row : msc::obs::Registry::global().snapshot().histograms) {
    if (row.name != name) continue;
    EXPECT_EQ(row.snapshot.count, 1u) << name;
    return row.snapshot.sum;
  }
  ADD_FAILURE() << "no histogram " << name;
  return -1.0;
}

// One timer per interval: a timed scope's histogram and the request phase
// it charges carry the same single clock reading, so they agree exactly,
// not just approximately.
TEST(ServeEngineObservability2, EachIntervalGetsOneReading) {
  const auto phase = [](const json::Value& reply, const char* name) {
    return reply.find("usage")->find("phases")->find(name)->asNumber();
  };
  for (const char* mode : {"dense", "pair_centric"}) {
    SCOPED_TRACE(mode);
    Engine engine;
    loadFixture(engine, msc::test::randomGraph(40, 0.1, 7),
                "0 39\n3 31\n5 22\n", mode);

    // Cold eval: the distance build (the pair-node row prefetch, whatever
    // the mode) is the request's whole APSP phase.
    msc::obs::resetAll();
    const auto eval = json::parse(engine.handleLine(
        "{\"cmd\":\"eval\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.14,"
        "\"placement\":\"0-39\"}"));
    ASSERT_EQ(eval.find("status")->asString(), "ok");
    const double apsp = phase(eval, "apsp");
    EXPECT_GT(apsp, 0.0);
    EXPECT_EQ(apsp, singleHistogramSample("apsp.build_seconds"));

    // One greedy round: one round-scan reading.
    msc::obs::resetAll();
    const auto solve = json::parse(engine.handleLine(
        "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.14,"
        "\"algo\":\"greedy\",\"k\":1,\"threads\":1,\"seed\":1}"));
    ASSERT_EQ(solve.find("status")->asString(), "ok");
    EXPECT_EQ(phase(solve, "apsp"), 0.0);  // warm oracle
    const double roundScan = phase(solve, "round_scan");
    EXPECT_EQ(roundScan, singleHistogramSample("greedy.round_scan_seconds"));
  }
  msc::obs::resetAll();
}

TEST(ServeEngineObservability2, SlowRequestBreachDumpsFlightRecord) {
  const double savedMs = msc::obs::slowRequestThresholdMs();
  const std::string savedDir = msc::obs::slowRequestDir();
  const std::string dumpDir = "serve_obs_slow_" + std::to_string(::getpid());

  Engine engine;
  // Registered at zero: present from the first scrape.
  EXPECT_NE(engine.metricsText().find("\nmsc_serve_slow_requests_total 0\n"),
            std::string::npos);
  loadFixture(engine, msc::test::randomGraph(30, 0.12, 5), "0 29\n4 21\n");
  // Arm the recorder only for the solve, so the load requests above don't
  // breach and litter the scratch dir with their own dumps.
  msc::obs::setSlowRequestThresholdMs(1e-6);  // everything breaches
  msc::obs::setSlowRequestDir(dumpDir);
  const auto resp = json::parse(engine.handleLine(
      "{\"id\":\"slow-1\",\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\","
      "\"p_t\":0.14,\"algo\":\"greedy\",\"k\":2,\"threads\":1,\"seed\":1}"));
  msc::obs::setSlowRequestThresholdMs(savedMs);
  msc::obs::setSlowRequestDir(savedDir);

  ASSERT_EQ(resp.find("status")->asString(), "ok");
  EXPECT_EQ(engine.snapshot().find("serve.slow_requests")->value, 1.0);

  const auto* traceFile = resp.find("usage")->find("trace_file");
  ASSERT_NE(traceFile, nullptr);
  EXPECT_EQ(traceFile->asString(), dumpDir + "/slowreq_slow-1.trace.json");
  const std::string body = readWholeFile(traceFile->asString());
  std::remove(traceFile->asString().c_str());
  ::rmdir(dumpDir.c_str());
  ASSERT_FALSE(body.empty()) << "flight record not written";

  // Perfetto-loadable: valid JSON, traceEvents array, the synthesized
  // per-phase lane present even with tracing disabled.
  const auto doc = json::parse(body);
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.find("schema")->asString(), "msc.trace.v1");
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  EXPECT_TRUE(doc.find("traceEvents")->isArray());
  EXPECT_NE(body.find("request.phases"), std::string::npos);
  EXPECT_NE(body.find("phase.apsp"), std::string::npos);
}

TEST(ServeEngineObservability2, ProfileParamMustBeBoolean) {
  Engine engine;
  loadFixture(engine, msc::test::lineGraph(6), "0 5\n");
  const auto resp = json::parse(engine.handleLine(
      "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.14,"
      "\"algo\":\"greedy\",\"k\":1,\"profile\":\"yes\"}"));
  EXPECT_EQ(resp.find("status")->asString(), "error");
  EXPECT_NE(resp.find("error")->asString().find("profile"),
            std::string::npos);
}

TEST(ServeEngine, EvalMatchesSigmaValueAndValidatesEndpoints) {
  auto g = msc::test::lineGraph(10);
  Engine engine;
  loadFixture(engine, g, "0 9\n1 8\n");
  const auto inst = msc::core::Instance::fromFailureThreshold(
      std::move(g), {{0, 9}, {1, 8}}, 0.14, 1);
  const auto placement = msc::core::ShortcutList{
      msc::core::Shortcut::make(0, 9)};
  const auto resp = json::parse(engine.handleLine(
      "{\"cmd\":\"eval\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.14,"
      "\"placement\":\"0-9\"}"));
  ASSERT_EQ(resp.find("status")->asString(), "ok");
  EXPECT_DOUBLE_EQ(resp.find("sigma")->asNumber(),
                   msc::core::sigmaValue(inst, placement));

  const auto bad = json::parse(engine.handleLine(
      "{\"cmd\":\"eval\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.14,"
      "\"placement\":\"0-999\"}"));
  EXPECT_EQ(bad.find("status")->asString(), "error");
}

// "p_t" and its CLI spelling "pt" are chosen by presence, never by value:
// a negative p_t is an error naming "p_t", not a fallback to "pt" or 0.14.
TEST(ServeEngine, OutOfRangeThresholdIsAnErrorNamingTheFieldSent) {
  // Short hops, so pair (1, 8) is maintained through 0-9 at p_t = 0.5 but
  // not at the 0.14 default.
  const auto g = msc::test::lineGraph(10, 0.1);
  Engine engine;
  loadFixture(engine, g, "0 9\n1 8\n");
  const auto expectRangeError = [&](const std::string& line,
                                    const std::string& field) {
    const auto resp = json::parse(engine.handleLine(line));
    ASSERT_EQ(resp.find("status")->asString(), "error") << line;
    EXPECT_NE(resp.find("error")->asString().find("\"" + field + "\""),
              std::string::npos)
        << resp.find("error")->asString();
  };
  expectRangeError(
      "{\"cmd\":\"eval\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":-0.5,"
      "\"placement\":\"0-9\"}",
      "p_t");
  expectRangeError(
      "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":-3,"
      "\"pt\":0.5,\"algo\":\"greedy\",\"k\":1}",
      "p_t");
  expectRangeError(
      "{\"cmd\":\"eval\",\"graph\":\"g\",\"pairs\":\"p\",\"pt\":1.5,"
      "\"placement\":\"0-9\"}",
      "pt");

  // "pt" alone is still accepted and read at its own value.
  const msc::core::ShortcutList placement{msc::core::Shortcut::make(0, 9)};
  const auto sigmaAt = [&](double pt) {
    return msc::core::sigmaValue(
        msc::core::Instance::fromFailureThreshold(g, {{0, 9}, {1, 8}}, pt, 1),
        placement);
  };
  ASSERT_NE(sigmaAt(0.5), sigmaAt(0.14));
  const auto resp = json::parse(engine.handleLine(
      "{\"cmd\":\"eval\",\"graph\":\"g\",\"pairs\":\"p\",\"pt\":0.5,"
      "\"placement\":\"0-9\"}"));
  ASSERT_EQ(resp.find("status")->asString(), "ok");
  EXPECT_DOUBLE_EQ(resp.find("sigma")->asNumber(), sigmaAt(0.5));
}

TEST(ServeEngine, LoadPairsRejectsTrailingTokensButAcceptsComments) {
  Engine engine;
  for (const char* bad : {"1 2 junk", "1 2 3", "1 2.5", "1"}) {
    const auto resp = json::parse(engine.handleLine(
        std::string("{\"cmd\":\"load_pairs\",\"text\":\"") + bad + "\"}"));
    EXPECT_EQ(resp.find("status")->asString(), "error") << bad;
  }
  const auto note = json::parse(engine.handleLine(
      "{\"cmd\":\"load_pairs\",\"text\":\"# header\\n1 2 # note\\n3 4#x\"}"));
  ASSERT_EQ(note.find("status")->asString(), "ok");
  EXPECT_EQ(note.find("count")->asNumber(), 2);
}

TEST(ServeEngine, MalformedInputNeverThrowsAlwaysStructuredError) {
  Engine engine;
  for (const char* line :
       {"", "garbage", "{\"cmd\":\"solve\"}", "{\"cmd\":\"solve\",\"graph\":7}",
        "{\"cmd\":\"load_graph\"}",
        "{\"cmd\":\"load_graph\",\"path\":\"/nonexistent/x\"}",
        "{\"cmd\":\"load_graph\",\"text\":\"not an edge list\"}",
        "{\"cmd\":\"solve\",\"graph\":\"g000\",\"pairs\":\"p000\"}",
        "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"k\":-1}",
        "{\"cmd\":\"sleep\",\"ms\":1e99}"}) {
    const auto resp = json::parse(engine.handleLine(line));
    EXPECT_EQ(resp.find("status")->asString(), "error") << line;
    EXPECT_EQ(resp.find("schema")->asString(), "msc.serve.v1") << line;
    EXPECT_NE(resp.find("error"), nullptr) << line;
  }
}

TEST(ServeEngine, StatsReportsCacheAndRequestCounters) {
  Engine engine;
  loadFixture(engine, msc::test::lineGraph(5), "0 4\n");
  (void)engine.handleLine("not json");
  const auto resp = json::parse(engine.handleLine("{\"cmd\":\"stats\"}"));
  ASSERT_EQ(resp.find("status")->asString(), "ok");
  EXPECT_GE(resp.find("requests")->asNumber(), 3.0);
  EXPECT_GE(resp.find("errors")->asNumber(), 1.0);
  const auto* cache = resp.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->find("entries")->asNumber(), 2.0);
  EXPECT_EQ(resp.find("schema_versions")->asArray()[0].asString(),
            "msc.serve.v1");
}

// ---------------------------------------------------------------- server ---

/// Serves `script` through serveFd — the CLI's poll reader and line cap —
/// from one unlinked temp file into another; returns what the server wrote.
std::string serveScript(Server& server, const std::string& script) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  EXPECT_NE(in, nullptr);
  EXPECT_NE(out, nullptr);
  if (in == nullptr || out == nullptr) return "";
  EXPECT_EQ(::write(::fileno(in), script.data(), script.size()),
            static_cast<ssize_t>(script.size()));
  ::lseek(::fileno(in), 0, SEEK_SET);
  EXPECT_EQ(server.serveFd(::fileno(in), ::fileno(out)), 0);
  std::string written;
  ::lseek(::fileno(out), 0, SEEK_SET);
  char buf[4096];
  for (ssize_t n; (n = ::read(::fileno(out), buf, sizeof(buf))) > 0;) {
    written.append(buf, static_cast<std::size_t>(n));
  }
  std::fclose(in);
  std::fclose(out);
  return written;
}

std::vector<json::Value> runScript(Server& server,
                                   const std::vector<std::string>& lines) {
  std::string script;
  for (const auto& l : lines) script += l + "\n";
  std::vector<json::Value> responses;
  std::istringstream parsed(serveScript(server, script));
  std::string line;
  while (std::getline(parsed, line)) responses.push_back(json::parse(line));
  return responses;
}

const json::Value* responseForId(const std::vector<json::Value>& responses,
                                 double id) {
  for (const auto& r : responses) {
    const auto* rid = r.find("id");
    if (rid && rid->isNumber() && rid->asNumber() == id) return &r;
  }
  return nullptr;
}

TEST(ServeServer, ShutdownDrainsAdmittedRequestsWithStructuredErrors) {
  Server server;
  // The sleep keeps the executor busy long enough for the reader to admit
  // everything, so the post-shutdown stats are deterministically drained.
  // A parse error (reader side) and a bad eval (engine side) join the two
  // drained requests as error replies.
  const auto responses = runScript(
      server,
      {"{\"id\":1,\"cmd\":\"stats\"}", "{broken",
       "{\"id\":6,\"cmd\":\"load_graph\",\"as\":\"g\",\"text\":\"" +
           jsonEscape(graphText(msc::test::lineGraph(5))) + "\"}",
       "{\"id\":7,\"cmd\":\"load_pairs\",\"as\":\"p\",\"text\":\"0 4\"}",
       "{\"id\":8,\"cmd\":\"eval\",\"graph\":\"g\",\"pairs\":\"p\","
       "\"placement\":\"0-999\"}",
       "{\"id\":2,\"cmd\":\"sleep\",\"ms\":150}",
       "{\"id\":3,\"cmd\":\"shutdown\"}", "{\"id\":4,\"cmd\":\"stats\"}",
       "{\"id\":5,\"cmd\":\"stats\"}"});
  ASSERT_EQ(responses.size(), 9u);
  EXPECT_EQ(responseForId(responses, 8)->find("status")->asString(), "error");
  EXPECT_EQ(responseForId(responses, 1)->find("status")->asString(), "ok");
  EXPECT_EQ(responseForId(responses, 2)->find("status")->asString(), "ok");
  EXPECT_EQ(responseForId(responses, 3)->find("status")->asString(), "ok");
  for (const double id : {4.0, 5.0}) {
    const auto* r = responseForId(responses, id);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->find("status")->asString(), "error");
    EXPECT_NE(r->find("error")->asString().find("shutting down"),
              std::string::npos);
  }
  // One error writer: serve.errors counts every error reply, exactly.
  double errorReplies = 0;
  for (const auto& r : responses) {
    if (r.find("status")->asString() == "error") ++errorReplies;
  }
  EXPECT_EQ(errorReplies, 4.0);
  EXPECT_EQ(server.engine().snapshot().find("serve.errors")->value,
            errorReplies);
}

TEST(ServeServer, TinyQueueRepliesOverloadedUnderBurst) {
  ServerConfig config;
  config.queueLimit = 1;
  Server server(config);
  std::vector<std::string> lines = {"{\"id\":1,\"cmd\":\"sleep\",\"ms\":300}"};
  for (int i = 2; i <= 8; ++i) {
    lines.push_back("{\"id\":" + std::to_string(i) + ",\"cmd\":\"stats\"}");
  }
  const auto responses = runScript(server, lines);
  EXPECT_EQ(responses.size(), 8u);  // every request gets exactly one reply
  const double overloadedCount =
      server.engine().snapshot().find("serve.overloaded")->value;
  EXPECT_GE(overloadedCount, 1.0);
  std::size_t overloaded = 0;
  for (const auto& r : responses) {
    if (r.find("status")->asString() == "overloaded") {
      ++overloaded;
      EXPECT_EQ(r.find("queue_limit")->asNumber(), 1.0);
    }
  }
  EXPECT_EQ(static_cast<double>(overloaded), overloadedCount);
}

TEST(ServeServer, ConcurrentMixedRequestsBitIdenticalToSerialReplay) {
  const auto g = msc::test::randomGraph(30, 0.12, 11);
  std::vector<std::string> requests;
  for (int i = 0; i < 12; ++i) {
    requests.push_back(
        "{\"id\":" + std::to_string(i) +
        ",\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.14,"
        "\"algo\":\"" + (i % 2 ? "greedy" : "sandwich") +
        "\",\"k\":" + std::to_string(1 + i % 3) +
        ",\"threads\":" + std::to_string(1 + i % 2) + ",\"seed\":1}");
  }
  const std::string pairsText = "0 29\n3 21\n5 12\n8 27\n";

  Engine concurrent;
  loadFixture(concurrent, g, pairsText);
  std::vector<std::string> got(requests.size());
  {
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      workers.emplace_back(
          [&, i] { got[i] = concurrent.handleLine(requests[i]); });
    }
    for (auto& w : workers) w.join();
  }

  Engine serial;
  loadFixture(serial, g, pairsText);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto want = json::parse(serial.handleLine(requests[i])).asObject();
    auto have = json::parse(got[i]).asObject();
    // Identical up to timing and cache temperature (a concurrent first
    // touch may see a different hit/miss than the serial replay); the
    // usage block is all timing + cache outcome, so it goes wholesale.
    for (auto* obj : {&want, &have}) {
      obj->erase("wall_seconds");
      obj->erase("apsp_cache");
      obj->erase("usage");
    }
    EXPECT_EQ(json::dump(json::Value(want)), json::dump(json::Value(have)))
        << requests[i];
  }
}

TEST(ServeServer, UnixSocketRoundTrip) {
  const std::string path =
      "/tmp/msc_serve_test_" + std::to_string(::getpid()) + ".sock";
  Server server;
  std::thread serving([&] { server.serveUnixSocket(path); });

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = -1;
  for (int attempt = 0; attempt < 100; ++attempt) {  // wait for bind
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(fd, 0) << "could not connect to " << path;

  const std::string script =
      "{\"id\":1,\"cmd\":\"stats\"}\n{\"id\":2,\"cmd\":\"shutdown\"}\n";
  ASSERT_EQ(::write(fd, script.data(), script.size()),
            static_cast<ssize_t>(script.size()));
  std::string reply;
  char buf[4096];
  while (reply.find('\n') == std::string::npos ||
         reply.find('\n') == reply.rfind('\n')) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  serving.join();

  std::istringstream lines(reply);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(json::parse(line).find("status")->asString(), "ok");
  ASSERT_TRUE(std::getline(lines, line));
  const auto second = json::parse(line);
  EXPECT_EQ(second.find("cmd")->asString(), "shutdown");
}

// ------------------------------------------------------------- telemetry ---

TEST(ServeTelemetry, HealthReportsReadyThenDraining) {
  Server::clearShutdownFlag();
  Engine engine;
  const auto up = json::parse(engine.handleLine("{\"cmd\":\"health\"}"));
  ASSERT_EQ(up.find("status")->asString(), "ok");
  EXPECT_TRUE(up.find("ready")->asBool());
  EXPECT_EQ(up.find("state")->asString(), "ready");
  EXPECT_GE(up.find("uptime_seconds")->asNumber(), 0.0);

  // Draining servers still answer health — with ready:false — instead of
  // the structured shutdown error every other command gets.
  (void)engine.handleLine("{\"cmd\":\"shutdown\"}");
  const auto down = json::parse(engine.handleLine("{\"cmd\":\"health\"}"));
  ASSERT_EQ(down.find("status")->asString(), "ok");
  EXPECT_FALSE(down.find("ready")->asBool());
  EXPECT_EQ(down.find("state")->asString(), "draining");
}

TEST(ServeTelemetry, ReadyHookVetoesReadiness) {
  Engine engine;
  EXPECT_TRUE(engine.ready());
  engine.setReadyHook([] { return false; });
  EXPECT_FALSE(engine.ready());
  const auto resp = json::parse(engine.handleLine("{\"cmd\":\"health\"}"));
  EXPECT_FALSE(resp.find("ready")->asBool());
}

TEST(ServeTelemetry, MetricsCommandReturnsPrometheusText) {
  Engine engine;
  (void)engine.handleLine("{\"cmd\":\"stats\"}");  // records latency
  const auto resp = json::parse(engine.handleLine("{\"cmd\":\"metrics\"}"));
  ASSERT_EQ(resp.find("status")->asString(), "ok");
  EXPECT_EQ(resp.find("format")->asString(), "prometheus-text-0.0.4");
  const std::string prom = resp.find("prometheus")->asString();
  EXPECT_NE(prom.find("# TYPE msc_serve_request_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("msc_serve_request_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
}

TEST(ServeEngine, DistanceModeKnobSelectsBackendAndSurfacesInStatsMetrics) {
  Engine engine;
  const auto g = msc::test::randomGraph(40, 0.1, 7);
  const auto r1 = json::parse(engine.handleLine(
      "{\"cmd\":\"load_graph\",\"as\":\"g\",\"distance_mode\":"
      "\"pair_centric\",\"text\":\"" +
      jsonEscape(graphText(g)) + "\"}"));
  ASSERT_EQ(r1.find("status")->asString(), "ok");
  EXPECT_EQ(r1.find("distance_mode")->asString(), "pair_centric");
  const auto r2 = json::parse(engine.handleLine(
      "{\"cmd\":\"load_pairs\",\"as\":\"p\",\"text\":\"0 39\\n3 31\\n\"}"));
  ASSERT_EQ(r2.find("status")->asString(), "ok");

  const auto solve = json::parse(engine.handleLine(
      "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.14,"
      "\"algo\":\"greedy\",\"k\":2,\"seed\":1}"));
  ASSERT_EQ(solve.find("status")->asString(), "ok");
  EXPECT_EQ(solve.find("distance_mode")->asString(), "pair_centric");
  // Pair-centric solves range over pair-node pairs, not all n*(n-1)/2.
  EXPECT_LE(solve.find("candidates")->asNumber(), 4.0 * 3.0 / 2.0);

  const auto stats = json::parse(engine.handleLine("{\"cmd\":\"stats\"}"));
  const auto* oracles = stats.find("cache")->find("oracles");
  ASSERT_NE(oracles, nullptr);
  EXPECT_EQ(oracles->find("count")->asNumber(), 1.0);
  EXPECT_GT(oracles->find("bytes")->asNumber(), 0.0);
  EXPECT_GT(oracles->find("row_builds")->asNumber(), 0.0);
  EXPECT_GT(oracles->find("rows_resident")->asNumber(), 0.0);

  const auto metrics = json::parse(engine.handleLine("{\"cmd\":\"metrics\"}"));
  const std::string prom = metrics.find("prometheus")->asString();
  EXPECT_NE(prom.find("# TYPE msc_serve_oracle_bytes gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("\nmsc_serve_oracle_bytes "), std::string::npos);
  EXPECT_NE(prom.find("msc_serve_oracle_queries_total{kind=\"row\"} "),
            std::string::npos);
  EXPECT_EQ(prom.find("mode=\""), std::string::npos);

  // Unknown modes are a structured protocol error, not a fallback.
  const auto bad = json::parse(engine.handleLine(
      "{\"cmd\":\"load_graph\",\"distance_mode\":\"fast\",\"text\":\"" +
      jsonEscape(graphText(g)) + "\"}"));
  EXPECT_EQ(bad.find("status")->asString(), "error");
}

// Pair-centric rows are exact only within d_t, and every solver reads
// them, not point queries: no served solve or eval ever falls back to a
// point-query search (alt_queries), whatever the algorithm.
TEST(ServeEngine, PairCentricSolvesNeverRunAltQueries) {
  Engine engine;
  const auto g = msc::test::randomGraph(60, 0.08, 9);
  const auto load = json::parse(engine.handleLine(
      "{\"cmd\":\"load_graph\",\"as\":\"g\",\"distance_mode\":"
      "\"pair_centric\",\"text\":\"" +
      jsonEscape(graphText(g)) + "\"}"));
  ASSERT_EQ(load.find("status")->asString(), "ok");
  const auto pairs = json::parse(engine.handleLine(
      "{\"cmd\":\"load_pairs\",\"as\":\"p\",\"text\":"
      "\"0 59\\n3 41\\n7 30\\n12 52\\n18 44\\n25 37\\n\"}"));
  ASSERT_EQ(pairs.find("status")->asString(), "ok");

  const auto expectNoAlt = [](const json::Value& reply, const char* what) {
    ASSERT_EQ(reply.find("status")->asString(), "ok") << what;
    const auto* oracle = reply.find("usage")->find("oracle");
    ASSERT_NE(oracle, nullptr) << what;
    EXPECT_GT(oracle->find("row_queries")->asNumber(), 0.0) << what;
    EXPECT_EQ(oracle->find("alt_queries")->asNumber(), 0.0) << what;
  };
  std::string placement;
  for (const char* algo :
       {"greedy", "sandwich", "aa", "ea", "aea", "budgeted"}) {
    const auto reply = json::parse(engine.handleLine(
        std::string("{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\","
                    "\"p_t\":0.6,\"k\":3,\"threads\":1,\"seed\":1,"
                    "\"iters\":40,\"algo\":\"") +
        algo + "\"}"));
    expectNoAlt(reply, algo);
    if (placement.empty()) placement = reply.find("placement")->asString();
  }
  expectNoAlt(json::parse(engine.handleLine(
                  "{\"cmd\":\"eval\",\"graph\":\"g\",\"pairs\":\"p\","
                  "\"p_t\":0.6,\"placement\":\"" +
                  placement + "\"}")),
              "eval");
}

// An auto graph resolves its mode once, at load_graph: whatever the
// session loads or evaluates in between, the same solve request gets the
// same candidate universe, placement and value. (A measured policy used to
// flip a large auto graph to dense once its cached rows passed half the
// matrix, which changed "candidates" between two identical solves.)
TEST(ServeEngine, AutoModeSolveIndependentOfEarlierRequests) {
  Engine engine;
  const int n = msc::graph::kDenseAutoNodeLimit + 1;
  const auto load = json::parse(engine.handleLine(
      "{\"cmd\":\"load_graph\",\"as\":\"g\",\"text\":\"" +
      jsonEscape(graphText(msc::test::cycleGraph(n))) + "\"}"));
  ASSERT_EQ(load.find("status")->asString(), "ok");
  (void)engine.handleLine(
      "{\"cmd\":\"load_pairs\",\"as\":\"b\",\"text\":\"0 1024\\n"
      "10 1500\\n\"}");
  // Pair set A spans well over half the nodes.
  std::string pairsA;
  for (int i = 0; i < 600; ++i) {
    pairsA += std::to_string(i) + " " + std::to_string(n - 1 - i) + "\\n";
  }
  (void)engine.handleLine(
      "{\"cmd\":\"load_pairs\",\"as\":\"a\",\"text\":\"" + pairsA +
      "\"}");

  const std::string solveB =
      "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"b\",\"p_t\":0.14,"
      "\"algo\":\"greedy\",\"k\":1,\"threads\":1,\"seed\":1}";
  const auto first = json::parse(engine.handleLine(solveB));
  ASSERT_EQ(first.find("status")->asString(), "ok");
  const auto evalA = json::parse(engine.handleLine(
      "{\"cmd\":\"eval\",\"graph\":\"g\",\"pairs\":\"a\",\"p_t\":0.14,"
      "\"placement\":\"\"}"));
  ASSERT_EQ(evalA.find("status")->asString(), "ok");
  const auto second = json::parse(engine.handleLine(solveB));
  ASSERT_EQ(second.find("status")->asString(), "ok");

  EXPECT_EQ(first.find("distance_mode")->asString(), "pair_centric");
  EXPECT_EQ(evalA.find("distance_mode")->asString(), "pair_centric");
  for (const char* field : {"candidates", "value"}) {
    EXPECT_EQ(first.find(field)->asNumber(), second.find(field)->asNumber())
        << field;
  }
  for (const char* field : {"placement", "distance_mode"}) {
    EXPECT_EQ(first.find(field)->asString(), second.find(field)->asString())
        << field;
  }
}

TEST(ServeCache, RowsASolveBuildsAreChargedWhenItEnds) {
  // Two graphs, one solve each, no request touches either graph again:
  // bytes_used must already hold every row both solves built.
  Engine engine;
  const auto ok = [&engine](const std::string& line) {
    const auto resp = json::parse(engine.handleLine(line));
    EXPECT_EQ(resp.find("status")->asString(), "ok") << line;
    return resp;
  };
  for (const auto& [name, seed] : {std::pair{"a", 3}, std::pair{"b", 4}}) {
    ok(std::string("{\"cmd\":\"load_graph\",\"as\":\"g") + name +
       "\",\"distance_mode\":\"pair_centric\",\"text\":\"" +
       jsonEscape(graphText(msc::test::randomGraph(60, 0.08, seed))) + "\"}");
    ok(std::string("{\"cmd\":\"load_pairs\",\"as\":\"p") + name +
       "\",\"text\":\"0 59\\n3 41\\n7 30\\n\"}");
  }
  const auto before = ok("{\"cmd\":\"stats\"}");
  const double loaded = before.find("cache")->find("bytes_used")->asNumber();
  EXPECT_EQ(before.find("cache")->find("oracles")->find("bytes")->asNumber(),
            0.0);
  for (const char* name : {"a", "b"}) {
    ok(std::string("{\"cmd\":\"solve\",\"graph\":\"g") + name +
       "\",\"pairs\":\"p" + name +
       "\",\"p_t\":0.14,\"algo\":\"greedy\",\"k\":2,\"threads\":1}");
  }
  const auto after = ok("{\"cmd\":\"stats\"}");
  const auto* cache = after.find("cache");
  const auto* oracles = cache->find("oracles");
  EXPECT_EQ(oracles->find("count")->asNumber(), 2.0);
  EXPECT_GE(oracles->find("rows_resident")->asNumber(), 2.0 * 6.0);
  const double rowBytes = oracles->find("bytes")->asNumber();
  EXPECT_GT(rowBytes, 0.0);
  EXPECT_EQ(cache->find("bytes_used")->asNumber(), loaded + rowBytes);
  EXPECT_EQ(cache->find("evictions")->asNumber(), 0.0);
}

TEST(ServeTelemetry, StatsIncludesObsSnapshotAndCacheBytes) {
  Engine engine;
  loadFixture(engine, msc::test::lineGraph(5), "0 4\n");
  const auto resp = json::parse(engine.handleLine("{\"cmd\":\"stats\"}"));
  ASSERT_EQ(resp.find("status")->asString(), "ok");
  EXPECT_GT(resp.find("cache")->find("bytes_used")->asNumber(), 0.0);
  ASSERT_NE(resp.find("obs_counters"), nullptr);
  EXPECT_TRUE(resp.find("obs_counters")->isObject());
  const auto* lat = resp.find("request_seconds");
  ASSERT_NE(lat, nullptr);
  // The stats request itself runs after the snapshot is taken, but the two
  // prior loads already recorded.
  EXPECT_GE(lat->find("count")->asNumber(), 2.0);
  EXPECT_LE(lat->find("p50")->asNumber(), lat->find("p99")->asNumber());
}

TEST(ServeTelemetry, ConcurrentLoadHistogramCountsEveryServedRequest) {
  msc::obs::resetAll();
  const std::string path =
      "/tmp/msc_serve_lat_" + std::to_string(::getpid()) + ".sock";
  ServerConfig config;
  config.queueLimit = 4096;  // never overloaded: every request is served
  Server server(config);
  std::thread serving([&] { server.serveUnixSocket(path); });

  constexpr int kClients = 4;
  constexpr int kPerClient = 30;
  std::atomic<int> okResponses{0};
  auto client = [&](int c) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    int fd = -1;
    for (int attempt = 0; attempt < 200; ++attempt) {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      ASSERT_GE(fd, 0);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        break;
      }
      ::close(fd);
      fd = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(fd, 0);
    std::string script;
    for (int i = 0; i < kPerClient; ++i) {
      script += "{\"id\":" + std::to_string(c * kPerClient + i) +
                ",\"cmd\":" +
                (i % 5 == 0 ? "\"health\"" : "\"stats\"") + "}\n";
    }
    ASSERT_EQ(::write(fd, script.data(), script.size()),
              static_cast<ssize_t>(script.size()));
    ::shutdown(fd, SHUT_WR);
    std::string reply;
    char buf[8192];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
      reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    std::istringstream lines(reply);
    std::string line;
    int got = 0;
    while (std::getline(lines, line)) {
      const auto r = json::parse(line);
      EXPECT_EQ(r.find("status")->asString(), "ok") << line;
      ++got;
    }
    EXPECT_EQ(got, kPerClient);
    okResponses.fetch_add(got);
  };
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
    for (auto& t : clients) t.join();
  }
  server.engine().handleLine("{\"cmd\":\"shutdown\"}");
  Server::requestShutdown();
  serving.join();
  Server::clearShutdownFlag();

  // Histograms are always-on: without MSC_METRICS, the exported request
  // latency distribution must cover exactly the requests served (the
  // explicit shutdown line above included) with ordered quantiles.
  const auto snap = msc::obs::Registry::global()
                        .histogram("serve.request_seconds")
                        .snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(okResponses.load()) + 1);
  EXPECT_EQ(okResponses.load(), kClients * kPerClient);
  EXPECT_LE(snap.p50(), snap.p90());
  EXPECT_LE(snap.p90(), snap.p99());
  EXPECT_LE(snap.p99(), snap.max);
  const auto waits = msc::obs::Registry::global()
                         .histogram("serve.queue_wait_seconds")
                         .snapshot();
  EXPECT_GT(waits.count, 0u);  // queued (non-health) requests record waits
  msc::obs::resetAll();
}

TEST(ServeTelemetry, MetricsHttpListenerServesScrapesAndHealth) {
  Server::clearShutdownFlag();
  Server server;
  const int port = server.startMetricsHttp(0);  // ephemeral
  ASSERT_GT(port, 0);

  const auto fetch = [&](const std::string& target) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string req = "GET " + target + " HTTP/1.1\r\n"
                            "Host: 127.0.0.1\r\nConnection: close\r\n\r\n";
    EXPECT_EQ(::write(fd, req.data(), req.size()),
              static_cast<ssize_t>(req.size()));
    std::string reply;
    char buf[8192];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
      reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return reply;
  };

  (void)server.engine().handleLine("{\"cmd\":\"stats\"}");  // seed histogram
  const std::string metrics = fetch("/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("msc_serve_request_seconds_count"),
            std::string::npos);

  const std::string healthy = fetch("/healthz");
  EXPECT_NE(healthy.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(healthy.find("ok"), std::string::npos);

  EXPECT_NE(fetch("/nope").find("404"), std::string::npos);

  // Once global shutdown is requested, the probe flips to 503 draining.
  Server::requestShutdown();
  const std::string draining = fetch("/healthz");
  EXPECT_NE(draining.find("503"), std::string::npos);
  EXPECT_NE(draining.find("draining"), std::string::npos);

  server.stopMetricsHttp();
  Server::clearShutdownFlag();
}

// ------------- live introspection: progress/cancel/deadlines (§18) --------

TEST(ServeCancel, CancelCommandStopsSleepingRequest) {
  Server server;
  // The cancel is answered on the reader thread (never queued), so it
  // reaches the sleep while the executor is still inside it.
  const auto responses = runScript(
      server, {"{\"id\":1,\"cmd\":\"sleep\",\"ms\":10000}",
               "{\"id\":2,\"cmd\":\"cancel\",\"target\":1}"});
  ASSERT_EQ(responses.size(), 2u);
  const auto* slept = responseForId(responses, 1);
  ASSERT_NE(slept, nullptr);
  EXPECT_EQ(slept->find("status")->asString(), "cancelled");
  EXPECT_EQ(slept->find("usage")->find("cancelled")->asString(), "client");
  EXPECT_LT(slept->find("wall_seconds")->asNumber(), 5.0);
  const auto* cancel = responseForId(responses, 2);
  ASSERT_NE(cancel, nullptr);
  EXPECT_EQ(cancel->find("status")->asString(), "ok");
  EXPECT_EQ(cancel->find("result")->asString(), "delivered");
}

// A cancel reaches a request still waiting in the admission queue, and the
// request's registry entry is gone once its reply is written.
TEST(ServeCancel, CancelReachesQueuedRequestAndEntryGoesWithItsReply) {
  std::signal(SIGPIPE, SIG_IGN);
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  Server server;
  std::thread serving([&] { EXPECT_EQ(server.serveFd(in[0], out[1]), 0); });
  const auto send = [&](const std::string& line) {
    const std::string buf = line + "\n";
    ASSERT_EQ(::write(in[1], buf.data(), buf.size()),
              static_cast<ssize_t>(buf.size()));
  };
  std::map<double, json::Value> replies;
  std::string pending;
  // Reads reply lines until the one for `id` has arrived.
  const auto awaitReply = [&](double id) {
    char buf[4096];
    while (replies.count(id) == 0) {
      for (std::size_t nl; (nl = pending.find('\n')) != std::string::npos;) {
        const auto r = json::parse(pending.substr(0, nl));
        pending.erase(0, nl + 1);
        replies[r.find("id")->asNumber()] = r;
      }
      if (replies.count(id) != 0) break;
      const ssize_t n = ::read(out[0], buf, sizeof(buf));
      ASSERT_GT(n, 0);
      pending.append(buf, static_cast<std::size_t>(n));
    }
  };
  // Sleep 1 holds the executor while sleep 2 sits in the queue.
  send("{\"id\":1,\"cmd\":\"sleep\",\"ms\":300}");
  send("{\"id\":2,\"cmd\":\"sleep\",\"ms\":10000}");
  send("{\"id\":3,\"cmd\":\"cancel\",\"target\":2}");
  awaitReply(2);
  send("{\"id\":4,\"cmd\":\"cancel\",\"target\":2}");
  awaitReply(4);
  ::close(in[1]);
  serving.join();
  ::close(in[0]);
  ::close(out[1]);
  ::close(out[0]);

  EXPECT_EQ(replies.at(1).find("status")->asString(), "ok");
  const json::Value& queued = replies.at(2);
  EXPECT_EQ(queued.find("status")->asString(), "cancelled");
  EXPECT_EQ(queued.find("usage")->find("cancelled")->asString(), "client");
  EXPECT_LT(queued.find("wall_seconds")->asNumber(), 5.0);
  EXPECT_EQ(replies.at(3).find("result")->asString(), "delivered");
  EXPECT_EQ(replies.at(4).find("result")->asString(), "not_found");
}

TEST(ServeCancel, CancelStopsEveryQueuedRequestWithTheSameId) {
  Server server;
  const auto responses = runScript(
      server, {"{\"id\":1,\"cmd\":\"sleep\",\"ms\":300}",
               "{\"id\":2,\"cmd\":\"sleep\",\"ms\":10000}",
               "{\"id\":2,\"cmd\":\"sleep\",\"ms\":10000}",
               "{\"id\":3,\"cmd\":\"cancel\",\"target\":2}"});
  ASSERT_EQ(responses.size(), 4u);
  int cancelled = 0;
  for (const auto& r : responses) {
    if (r.find("id")->asNumber() != 2) continue;
    EXPECT_EQ(r.find("status")->asString(), "cancelled");
    EXPECT_LT(r.find("wall_seconds")->asNumber(), 5.0);
    ++cancelled;
  }
  EXPECT_EQ(cancelled, 2);
  EXPECT_EQ(responseForId(responses, 3)->find("result")->asString(),
            "delivered");
}

TEST(ServeCancel, DeadlineExceededSleepReturnsEarlyWithAttribution) {
  Engine engine;
  const auto resp = json::parse(engine.handleLine(
      "{\"id\":1,\"cmd\":\"sleep\",\"ms\":10000,\"deadline_seconds\":0.05}"));
  EXPECT_EQ(resp.find("status")->asString(), "deadline_exceeded");
  EXPECT_EQ(resp.find("usage")->find("cancelled")->asString(), "deadline");
  EXPECT_DOUBLE_EQ(resp.find("usage")->find("deadline_seconds")->asNumber(),
                   0.05);
  EXPECT_LT(resp.find("wall_seconds")->asNumber(), 5.0);
}

TEST(ServeCancel, CancelUnknownTargetReportsNotFound) {
  Engine engine;
  const auto resp = json::parse(
      engine.handleLine("{\"id\":2,\"cmd\":\"cancel\",\"target\":\"nope\"}"));
  EXPECT_EQ(resp.find("status")->asString(), "ok");
  EXPECT_EQ(resp.find("result")->asString(), "not_found");
}

TEST(ServeCancel, InvalidDeadlineAndProgressParamsAreStructuredErrors) {
  Engine engine;
  const auto bad1 = json::parse(engine.handleLine(
      "{\"id\":1,\"cmd\":\"stats\",\"deadline_seconds\":0}"));
  EXPECT_EQ(bad1.find("status")->asString(), "error");
  const auto bad2 = json::parse(engine.handleLine(
      "{\"id\":2,\"cmd\":\"stats\",\"deadline_seconds\":-1}"));
  EXPECT_EQ(bad2.find("status")->asString(), "error");
  const auto bad3 = json::parse(
      engine.handleLine("{\"id\":3,\"cmd\":\"stats\",\"progress\":5}"));
  EXPECT_EQ(bad3.find("status")->asString(), "error");
  const auto bad4 = json::parse(
      engine.handleLine("{\"id\":4,\"cmd\":\"cancel\"}"));
  EXPECT_EQ(bad4.find("status")->asString(), "error");
}

TEST(ServeProgress, SolveStreamsOrderedWellFormedEventsBeforeReply) {
  auto g = msc::test::randomGraph(40, 0.1, 7);
  Engine engine;
  loadFixture(engine, g, "0 39\n3 31\n5 22\n8 17\n1 30\n2 28\n");

  const auto req = msc::serve::parseRequest(
      "{\"id\":5,\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\","
      "\"p_t\":0.14,\"algo\":\"greedy\",\"k\":3,\"threads\":1,\"seed\":1,"
      "\"progress\":{\"every_ms\":0}}");
  std::vector<json::Value> events;
  const std::function<void(const std::string&)> notify =
      [&](const std::string& line) { events.push_back(json::parse(line)); };
  const auto resp = json::parse(engine.handle(req, 0.0, &notify));

  ASSERT_EQ(resp.find("status")->asString(), "ok");
  ASSERT_GE(events.size(), 2u);  // at least two events before the reply
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    EXPECT_EQ(ev.find("schema")->asString(), msc::serve::kSchemaVersion);
    EXPECT_EQ(ev.find("event")->asString(), "progress");
    EXPECT_DOUBLE_EQ(ev.find("id")->asNumber(), 5.0);
    EXPECT_EQ(ev.find("solver")->asString(), "greedy");
    EXPECT_DOUBLE_EQ(ev.find("seq")->asNumber(), static_cast<double>(i + 1));
    EXPECT_DOUBLE_EQ(ev.find("round")->asNumber(), static_cast<double>(i + 1));
    EXPECT_NE(ev.find("value"), nullptr);
    EXPECT_NE(ev.find("gain_evals"), nullptr);
  }
  const auto* usageProgress = resp.find("usage")->find("progress");
  ASSERT_NE(usageProgress, nullptr);
  EXPECT_DOUBLE_EQ(usageProgress->find("every_ms")->asNumber(), 0.0);
  EXPECT_DOUBLE_EQ(usageProgress->find("events")->asNumber(),
                   static_cast<double>(events.size()));
  EXPECT_GE(usageProgress->find("snapshots")->asNumber(),
            static_cast<double>(events.size()));
}

TEST(ServeProgress, ProgressRequestDoesNotPerturbTheReply) {
  auto g = msc::test::randomGraph(40, 0.1, 7);
  const std::string solveTail =
      "\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.14,"
      "\"algo\":\"greedy\",\"k\":3,\"threads\":1,\"seed\":1";

  Engine plainEngine;
  loadFixture(plainEngine, g, "0 39\n3 31\n5 22\n");
  const auto plain =
      json::parse(plainEngine.handleLine("{\"id\":1," + solveTail + "}"));

  Engine progressEngine;
  loadFixture(progressEngine, g, "0 39\n3 31\n5 22\n");
  const auto req = msc::serve::parseRequest(
      "{\"id\":1," + solveTail + ",\"progress\":{\"every_ms\":0}}");
  int events = 0;
  const std::function<void(const std::string&)> notify =
      [&](const std::string&) { ++events; };
  const auto withProgress =
      json::parse(progressEngine.handle(req, 0.0, &notify));

  EXPECT_GT(events, 0);
  auto a = plain.asObject();
  auto b = withProgress.asObject();
  for (auto* o : {&a, &b}) {
    o->erase("wall_seconds");
    o->erase("usage");
  }
  EXPECT_EQ(json::dump(json::Value(a)), json::dump(json::Value(b)));
}

TEST(ServeCancel, MidSolveCancelReturnsBitIdenticalAnytimePrefix) {
  const double pt = 0.14;
  auto g = msc::test::randomGraph(40, 0.1, 7);
  Engine engine;
  loadFixture(engine, g, "0 39\n3 31\n5 22\n8 17\n1 30\n2 28\n");

  // Direct reference run: the uncancelled trajectory.
  const std::vector<msc::core::SocialPair> pairs = {{0, 39}, {3, 31}, {5, 22},
                                                    {8, 17}, {1, 30}, {2, 28}};
  const auto inst =
      msc::core::Instance::fromFailureThreshold(std::move(g), pairs, pt, 1);
  const auto cands =
      msc::core::CandidateSet::allPairs(inst.graph().nodeCount());
  msc::core::SigmaEvaluator sigma(inst);
  const auto reference = msc::core::greedyMaximize(
      sigma, cands, {.k = 4, .threads = 1, .seed = 1});
  constexpr int kCancelAfterRound = 2;
  ASSERT_GT(reference.rounds, kCancelAfterRound);

  // Serve run: cancel from the progress stream at the round-2 boundary.
  const auto req = msc::serve::parseRequest(
      "{\"id\":9,\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\","
      "\"p_t\":0.14,\"algo\":\"greedy\",\"k\":4,\"threads\":1,\"seed\":1,"
      "\"progress\":{\"every_ms\":0}}");
  msc::util::CancelToken token;
  const std::function<void(const std::string&)> notify =
      [&](const std::string& line) {
        const auto ev = json::parse(line);
        if (ev.find("round")->asNumber() == kCancelAfterRound) {
          token.requestCancel();
        }
      };
  const auto resp = json::parse(engine.handle(req, 0.0, &notify, &token));

  EXPECT_EQ(resp.find("status")->asString(), "cancelled");
  EXPECT_EQ(resp.find("usage")->find("cancelled")->asString(), "client");
  // The anytime placement is exactly the completed-round prefix of the
  // uncancelled run, and the reported value is that prefix's value.
  msc::core::ShortcutList prefix(
      reference.placement.begin(),
      reference.placement.begin() + kCancelAfterRound);
  EXPECT_EQ(resp.find("placement")->asString(),
            msc::serve::placementSpec(prefix));
  EXPECT_DOUBLE_EQ(resp.find("value")->asNumber(),
                   reference.trajectory[kCancelAfterRound - 1]);
}

TEST(ServeCancel, CancelledSandwichBoundGapIsWellFormedWhenCertified) {
  auto g = msc::test::randomGraph(40, 0.1, 7);
  Engine engine;
  loadFixture(engine, g, "0 39\n3 31\n5 22\n8 17\n1 30\n2 28\n");

  // Cancel once the nu pass commits its last round: the passes run mu,
  // sigma, nu in order at any thread count, so the bound is then certified
  // even though the run as a whole is interrupted.
  const auto req = msc::serve::parseRequest(
      "{\"id\":3,\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\","
      "\"p_t\":0.14,\"algo\":\"sandwich\",\"k\":3,\"threads\":4,\"seed\":1,"
      "\"progress\":{\"every_ms\":0}}");
  msc::util::CancelToken token;
  const std::function<void(const std::string&)> notify =
      [&](const std::string& line) {
        const auto ev = json::parse(line);
        const auto* stage = ev.find("stage");
        const auto* total = ev.find("total_rounds");
        if (stage && stage->asString() == "nu" && total &&
            ev.find("round")->asNumber() == total->asNumber()) {
          token.requestCancel();
        }
      };
  const auto resp = json::parse(engine.handle(req, 0.0, &notify, &token));

  const std::string status = resp.find("status")->asString();
  EXPECT_EQ(status, "cancelled");
  const auto* upper = resp.find("certified_upper_bound");
  const auto* gap = resp.find("bound_gap");
  ASSERT_NE(upper, nullptr);
  ASSERT_NE(gap, nullptr);
  const double value = resp.find("value")->asNumber();
  EXPECT_GE(gap->asNumber(), -1e-9);
  EXPECT_NEAR(gap->asNumber(), upper->asNumber() - value, 1e-9);
}

TEST(ServeTelemetry, StatsAndMetricsExposeProgressAndCancellationSeries) {
  Engine engine;
  // One deadline-cancelled request so the deadline counter is non-zero.
  (void)engine.handleLine(
      "{\"id\":1,\"cmd\":\"sleep\",\"ms\":5000,\"deadline_seconds\":0.01}");

  const auto stats = json::parse(engine.handleLine("{\"cmd\":\"stats\"}"));
  const auto* cancellations = stats.find("cancellations");
  ASSERT_NE(cancellations, nullptr);
  EXPECT_GE(cancellations->find("deadline")->asNumber(), 1.0);
  EXPECT_GE(cancellations->find("client")->asNumber(), 0.0);
  const auto* progress = stats.find("progress");
  ASSERT_NE(progress, nullptr);
  EXPECT_NE(progress->find("snapshots"), nullptr);
  EXPECT_NE(progress->find("events"), nullptr);

  const std::string metrics = engine.metricsText();
  for (const char* series :
       {"msc_serve_cancellations_total{reason=\"client\"}",
        "msc_serve_cancellations_total{reason=\"deadline\"}",
        "msc_serve_requests_inflight{phase=\"executing\"}",
        "msc_serve_requests_inflight{phase=\"queued\"}",
        "msc_progress_snapshots_total", "msc_progress_events_total"}) {
    EXPECT_NE(metrics.find(series), std::string::npos) << series;
  }
}

TEST(ServeServer, GlobalShutdownFlagStopsStreamLoop) {
  Server::clearShutdownFlag();
  Server::requestShutdown();
  EXPECT_TRUE(Server::shutdownRequested());
  Server server;
  // flag was set before any admission
  EXPECT_TRUE(serveScript(server, "{\"id\":1,\"cmd\":\"stats\"}\n").empty());
  Server::clearShutdownFlag();
  EXPECT_FALSE(Server::shutdownRequested());
}

// ----------------------------------------------------- one telemetry model ---

/// Sample lines of a Prometheus page, keyed `name{labels}` as printed.
std::map<std::string, double> promSamples(const std::string& page) {
  std::map<std::string, double> out;
  std::istringstream in(page);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    out[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return out;
}

/// `root` at a dotted path ("cache.oracles.count"), or null.
const json::Value* atPath(const json::Value& root, const std::string& path) {
  const json::Value* v = &root;
  std::istringstream parts(path);
  for (std::string key; v != nullptr && std::getline(parts, key, '.');) {
    v = v->find(key);
  }
  return v;
}

/// The Prometheus series of an msc.metrics.v1 / obs_counters counter key.
std::string promCounterSeries(const std::string& key) {
  const auto brace = key.find('{');
  const std::string labels =
      brace == std::string::npos ? "" : key.substr(brace);
  return "msc_" + msc::obs::promSanitizeName(key.substr(0, brace)) +
         "_total" + labels;
}

TEST(ServeServer, ReaderSideRejectionsCountAsErrors) {
  Server server;
  const auto responses = runScript(
      server, {"{broken", "{\"id\":1,\"cmd\":\"nope\"}",
               "{\"id\":2,\"cmd\":\"stats\"}"});
  ASSERT_EQ(responses.size(), 3u);
  const auto* stats = responseForId(responses, 2);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("errors")->asNumber(), 2.0);
  const auto page = promSamples(server.engine().metricsText());
  ASSERT_EQ(page.count("msc_serve_errors_total"), 1u);
  EXPECT_EQ(page.at("msc_serve_errors_total"), 2.0);
}

// A line over the 32 MiB cap is answered and skipped; the stdio server
// keeps reading the lines behind it.
TEST(ServeServer, OversizedLineIsAnsweredAndServingContinues) {
  // A server that stops reading early hands the writer EPIPE, not SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  std::thread writer([fd = in[1]] {
    const std::string script =
        "{\"id\":1,\"cmd\":\"load_pairs\",\"text\":\"" +
        std::string(33u << 20, '1') +
        "\"}\n{\"id\":2,\"cmd\":\"health\"}\n{\"id\":3,\"cmd\":\"stats\"}\n";
    for (std::size_t off = 0; off < script.size();) {
      const ssize_t n = ::write(fd, script.data() + off, script.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(fd);
  });
  Server server;
  EXPECT_EQ(server.serveFd(in[0], out[1]), 0);
  ::close(in[0]);
  writer.join();
  ::close(out[1]);
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = ::read(out[0], buf, sizeof(buf))) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(out[0]);

  std::vector<json::Value> responses;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    responses.push_back(json::parse(line));
  }
  ASSERT_EQ(responses.size(), 3u) << text;
  EXPECT_EQ(responses[0].find("status")->asString(), "error");
  EXPECT_NE(responses[0].find("error")->asString().find("32 MiB"),
            std::string::npos);
  const auto* health = responseForId(responses, 2);
  ASSERT_NE(health, nullptr);
  EXPECT_EQ(health->find("status")->asString(), "ok");
  const auto* stats = responseForId(responses, 3);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("errors")->asNumber(), 1.0);
}

// Oracle totals are per-engine sums of usage.oracle: re-loading a graph
// with another distance_mode (which keeps its oracle) or evicting the
// graph must not lower them.
TEST(ServeTelemetry, OracleTotalsNeverDecreaseAcrossReloadAndEviction) {
  EngineConfig config;
  config.cacheBytes = 64u << 10;
  Engine engine(config);
  const auto g = msc::test::randomGraph(40, 0.1, 7);
  const auto load = [&](const msc::graph::Graph& graph, const char* mode) {
    const auto r = json::parse(engine.handleLine(
        std::string("{\"cmd\":\"load_graph\",\"as\":\"g\",") +
        "\"distance_mode\":\"" + mode + "\",\"text\":\"" +
        jsonEscape(graphText(graph)) + "\"}"));
    ASSERT_EQ(r.find("status")->asString(), "ok");
  };
  const auto solve = [&] {
    const auto r = json::parse(engine.handleLine(
        "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.14,"
        "\"algo\":\"greedy\",\"k\":2,\"seed\":1}"));
    ASSERT_EQ(r.find("status")->asString(), "ok");
  };
  // Every oracle counter, from the metrics page and from stats.
  const auto totals = [&] {
    std::map<std::string, double> t;
    for (const auto& [series, value] : promSamples(engine.metricsText())) {
      if (series.rfind("msc_serve_oracle_", 0) == 0 &&
          series.find("_total") != std::string::npos) {
        t[series] = value;
      }
    }
    const auto stats = json::parse(engine.handleLine("{\"cmd\":\"stats\"}"));
    for (const char* field : {"point_queries", "row_queries", "row_builds",
                              "row_hits", "alt_queries", "rows_evicted"}) {
      t[std::string("stats.") + field] =
          stats.find("cache")->find("oracles")->find(field)->asNumber();
    }
    return t;
  };
  const auto expectNoDecrease = [](const std::map<std::string, double>& before,
                                   const std::map<std::string, double>& after,
                                   const char* step) {
    for (const auto& [series, value] : before) {
      ASSERT_EQ(after.count(series), 1u) << series << " after " << step;
      EXPECT_GE(after.at(series), value) << series << " after " << step;
    }
  };

  load(g, "pair_centric");
  (void)engine.handleLine(
      "{\"cmd\":\"load_pairs\",\"as\":\"p\",\"text\":\"0 39\\n3 31\\n\"}");
  solve();
  const auto solved = totals();
  EXPECT_GT(solved.at("msc_serve_oracle_row_builds_total"), 0.0);
  load(g, "dense");  // changes the candidate universe, keeps the oracle
  const auto reloaded = totals();
  expectNoDecrease(solved, reloaded, "mode re-load");
  EXPECT_EQ(engine.cache().stats().oracles, 1u);
  const std::uint64_t apspHits = engine.cache().stats().apspHits;
  solve();
  EXPECT_EQ(engine.cache().stats().apspHits, apspHits + 1);
  const auto dense = totals();
  expectNoDecrease(reloaded, dense, "dense solve");
  load(msc::test::randomGraph(400, 0.05, 3), "dense");  // evicts g
  EXPECT_GT(engine.cache().stats().evictions, 0u);
  expectNoDecrease(dense, totals(), "eviction");
}

// One Server session touching every serve-level number: each `stats` value
// must equal its series on the metrics page, the oracle totals must equal
// the sum of usage.oracle over the replies, and every counter in
// obs_counters must read the same on the Prometheus page and (for the
// global ones) in msc.metrics.v1.
TEST(ServeTelemetry, StatsMetricsAndRepliesAgreeOverOneSession) {
  ServerConfig config;
  config.queueLimit = 1;
  Server server(config);
  const std::string solve =
      "\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.14,"
      "\"algo\":\"greedy\",\"k\":2,\"threads\":1,\"seed\":1";
  const std::string graph =
      jsonEscape(graphText(msc::test::randomGraph(40, 0.1, 7)));
  // One admitted request per run keeps the tiny queue out of the way,
  // except in the burst that is meant to overload it.
  const std::vector<std::vector<std::string>> script = {
      {"{\"id\":1,\"cmd\":\"load_graph\",\"as\":\"g\",\"distance_mode\":"
       "\"pair_centric\",\"text\":\"" + graph + "\"}"},
      {"{\"id\":2,\"cmd\":\"load_pairs\",\"as\":\"p\",\"text\":\"0 39\\n3 "
       "31\\n5 20\\n\"}"},
      {"{\"id\":3," + solve + ",\"progress\":{\"every_ms\":0}}"},
      {"{\"id\":4,\"cmd\":\"eval\",\"graph\":\"g\",\"pairs\":\"p\","
       "\"p_t\":0.14,\"placement\":\"0-39\"}"},
      {"{\"id\":5,\"cmd\":\"sleep\",\"ms\":10000}",
       "{\"id\":6,\"cmd\":\"cancel\",\"target\":5}"},
      {"{\"id\":7,\"cmd\":\"sleep\",\"ms\":5000,\"deadline_seconds\":0.01}"},
      {"{\"id\":8,\"cmd\":\"sleep\",\"ms\":300}",
       "{\"id\":9,\"cmd\":\"stats\"}", "{\"id\":10,\"cmd\":\"stats\"}",
       "{\"id\":11,\"cmd\":\"stats\"}"},
      {"{broken"},
      {"{\"id\":12,\"cmd\":\"load_graph\",\"as\":\"g\",\"distance_mode\":"
       "\"dense\",\"text\":\"" + graph + "\"}"},
      {"{\"id\":13," + solve + "}"},
      {"{\"id\":14,\"cmd\":\"stats\"}"},
  };
  std::vector<json::Value> replies;
  for (const auto& lines : script) {
    for (auto& r : runScript(server, lines)) replies.push_back(std::move(r));
  }
  const auto page = promSamples(server.engine().metricsText());
  const auto global = json::parse(
      msc::obs::toJson(msc::obs::Registry::global().snapshot()));

  std::map<std::string, std::string> statuses;
  for (const auto& r : replies) {
    if (const auto* status = r.find("status")) {
      statuses[json::dump(*r.find("id"))] = status->asString();
    }
  }
  EXPECT_EQ(statuses["3"], "ok");
  EXPECT_EQ(statuses["4"], "ok");
  EXPECT_EQ(statuses["5"], "cancelled");
  EXPECT_EQ(statuses["7"], "deadline_exceeded");
  EXPECT_EQ(statuses["13"], "ok");
  const auto* stats = responseForId(replies, 14);
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->find("overloaded")->asNumber(), 1.0);
  EXPECT_GE(stats->find("errors")->asNumber(), 1.0);

  const std::pair<const char*, const char*> fields[] = {
      {"requests", "msc_serve_requests_total"},
      {"errors", "msc_serve_errors_total"},
      {"cache.bytes_used", "msc_serve_cache_bytes_used"},
      {"cache.byte_budget", "msc_serve_cache_byte_budget"},
      {"cache.entries", "msc_serve_cache_entries"},
      {"cache.graph_hits", "msc_serve_cache_graph_hits_total"},
      {"cache.graph_misses", "msc_serve_cache_graph_misses_total"},
      {"cache.pairs_hits", "msc_serve_cache_pairs_hits_total"},
      {"cache.pairs_misses", "msc_serve_cache_pairs_misses_total"},
      {"cache.apsp_hits", "msc_serve_cache_apsp_hits_total"},
      {"cache.apsp_computes", "msc_serve_cache_apsp_misses_total"},
      {"cache.evictions", "msc_serve_cache_evictions_total"},
      {"cache.oracles.count", "msc_serve_oracle_count"},
      {"cache.oracles.bytes", "msc_serve_oracle_bytes"},
      {"cache.oracles.rows_resident", "msc_serve_oracle_rows"},
      {"cache.oracles.point_queries",
       "msc_serve_oracle_queries_total{kind=\"point\"}"},
      {"cache.oracles.row_queries",
       "msc_serve_oracle_queries_total{kind=\"row\"}"},
      {"cache.oracles.row_builds", "msc_serve_oracle_row_builds_total"},
      {"cache.oracles.row_hits", "msc_serve_oracle_row_hits_total"},
      {"cache.oracles.alt_queries", "msc_serve_oracle_alt_queries_total"},
      {"cache.oracles.rows_evicted", "msc_serve_oracle_row_evictions_total"},
      {"progress.snapshots", "msc_progress_snapshots_total"},
      {"progress.events", "msc_progress_events_total"},
      {"progress.last_rounds_per_second", "msc_solver_rounds_per_second"},
      {"cancellations.client",
       "msc_serve_cancellations_total{reason=\"client\"}"},
      {"cancellations.deadline",
       "msc_serve_cancellations_total{reason=\"deadline\"}"},
      {"queue_limit", "msc_serve_queue_limit"},
      {"queue_depth", "msc_serve_requests_inflight{phase=\"queued\"}"},
      {"overloaded", "msc_serve_overloaded_total"},
  };
  for (const auto& [field, series] : fields) {
    const json::Value* v = atPath(*stats, field);
    ASSERT_NE(v, nullptr) << field;
    ASSERT_EQ(page.count(series), 1u) << series;
    EXPECT_EQ(v->asNumber(), page.at(series)) << field;
  }
  // The stats request records its own latency after its snapshot.
  EXPECT_EQ(atPath(*stats, "request_seconds.count")->asNumber() + 1,
            page.at("msc_serve_request_seconds_count"));
  EXPECT_LE(stats->find("uptime_seconds")->asNumber(),
            page.at("msc_serve_uptime_seconds"));

  const std::pair<const char*, const char*> oracle[] = {
      {"point_queries", "msc_serve_oracle_queries_total{kind=\"point\"}"},
      {"row_queries", "msc_serve_oracle_queries_total{kind=\"row\"}"},
      {"row_builds", "msc_serve_oracle_row_builds_total"},
      {"row_hits", "msc_serve_oracle_row_hits_total"},
      {"rows_evicted", "msc_serve_oracle_row_evictions_total"},
      {"alt_queries", "msc_serve_oracle_alt_queries_total"},
  };
  for (const auto& [field, series] : oracle) {
    double sum = 0.0;
    for (const auto& r : replies) {
      if (const auto* v = atPath(r, std::string("usage.oracle.") + field)) {
        sum += v->asNumber();
      }
    }
    EXPECT_EQ(sum, page.at(series)) << field;
  }
  EXPECT_GT(page.at("msc_serve_oracle_row_builds_total"), 0.0);

  const auto& counters = stats->find("obs_counters")->asObject();
  for (const auto& [key, value] : counters) {
    const std::string series = promCounterSeries(key);
    ASSERT_EQ(page.count(series), 1u) << key;
    EXPECT_EQ(value.asNumber(), page.at(series)) << key;
  }
  for (const auto& [key, value] : global.find("counters")->asObject()) {
    ASSERT_EQ(counters.count(key), 1u) << key;
    EXPECT_EQ(counters.at(key).asNumber(), value.asNumber()) << key;
  }
  EXPECT_EQ(counters.count("progress.snapshots"), 1u);
}

// Library telemetry records with no switch: one greedy solve moves the
// solver and Dijkstra counters in `stats` and on the metrics page, and a
// span that names a histogram feeds that histogram only, with no
// "span.<name>" stat repeating its reading.
TEST(ServeTelemetry, LibraryCountersRecordWithoutASwitch) {
  msc::obs::resetAll();
  Engine engine;
  loadFixture(engine, msc::test::randomGraph(40, 0.1, 7), "0 39\n3 31\n");
  const auto solve = json::parse(engine.handleLine(
      "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.14,"
      "\"algo\":\"greedy\",\"k\":2,\"threads\":1,\"seed\":1}"));
  ASSERT_EQ(solve.find("status")->asString(), "ok");

  const auto stats = json::parse(engine.handleLine("{\"cmd\":\"stats\"}"));
  const auto& counters = stats.find("obs_counters")->asObject();
  const auto page = promSamples(engine.metricsText());
  for (const char* key : {"greedy.rounds", "dijkstra.runs"}) {
    ASSERT_EQ(counters.count(key), 1u) << key;
    EXPECT_GT(counters.at(key).asNumber(), 0.0) << key;
    ASSERT_EQ(page.count(promCounterSeries(key)), 1u) << key;
    EXPECT_EQ(page.at(promCounterSeries(key)), counters.at(key).asNumber())
        << key;
  }
  EXPECT_GT(msc::obs::histogram("apsp.build_seconds").snapshot().count, 0u);
  EXPECT_GT(
      msc::obs::histogram("greedy.round_scan_seconds").snapshot().count, 0u);
  for (const auto& row : msc::obs::Registry::global().snapshot().stats) {
    for (const char* span : {"apsp.run", "greedy.round_scan", "mc.frontier"}) {
      EXPECT_NE(row.name, std::string("span.") + span);
    }
  }
  msc::obs::resetAll();
}

}  // namespace
