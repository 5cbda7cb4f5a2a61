// Request-scoped observability context (obs/context.h): binding semantics,
// thread-pool inheritance, trace tagging and the flight recorder. The pool
// tests double as the TSan workload for concurrent attribution (CI runs
// this binary under -fsanitize=thread).
#include "obs/context.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/json.h"
#include "util/parallel.h"

namespace {

using msc::obs::Phase;
using msc::obs::RequestContext;

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Unique-ish per-test scratch dir under the build tree.
std::string scratchDir(const char* tag) {
  return "ctx_test_" + std::string(tag) + "_" + std::to_string(::getpid());
}

TEST(RequestContext, BindNestsAndRestores) {
  EXPECT_EQ(msc::obs::currentRequest(), nullptr);
  RequestContext outer("1");
  RequestContext inner("2");
  {
    const msc::obs::ScopedRequestBind bindOuter(&outer);
    EXPECT_EQ(msc::obs::currentRequest(), &outer);
    EXPECT_EQ(msc::obs::trace::currentRequestId(), outer.traceId());
    {
      const msc::obs::ScopedRequestBind bindInner(&inner);
      EXPECT_EQ(msc::obs::currentRequest(), &inner);
      EXPECT_EQ(msc::obs::trace::currentRequestId(), inner.traceId());
    }
    EXPECT_EQ(msc::obs::currentRequest(), &outer);
    EXPECT_EQ(msc::obs::trace::currentRequestId(), outer.traceId());
  }
  EXPECT_EQ(msc::obs::currentRequest(), nullptr);
  EXPECT_EQ(msc::obs::trace::currentRequestId(), 0u);
}

TEST(RequestContext, NullBindIsNoOp) {
  RequestContext ctx("1");
  const msc::obs::ScopedRequestBind bind(&ctx);
  {
    const msc::obs::ScopedRequestBind nullBind(nullptr);
    EXPECT_EQ(msc::obs::currentRequest(), &ctx);
  }
  EXPECT_EQ(msc::obs::currentRequest(), &ctx);
}

TEST(RequestContext, TraceIdsAreUniqueAndNonzero) {
  RequestContext a("1");
  RequestContext b("1");  // same client id, distinct trace identity
  EXPECT_NE(a.traceId(), 0u);
  EXPECT_NE(b.traceId(), 0u);
  EXPECT_NE(a.traceId(), b.traceId());
}

TEST(RequestContext, PhaseAccountingAndFinalize) {
  RequestContext ctx("1");
  ctx.addPhaseNs(Phase::QueueWait, 5'000'000);
  ctx.addPhaseNs(Phase::Apsp, 10'000'000);
  ctx.addPhaseNs(Phase::Apsp, 10'000'000);  // accumulates
  ctx.addPhaseNs(Phase::RoundScan, 30'000'000);
  ctx.addPhaseNs(Phase::RoundScan, -1);  // negative charges are dropped
  ctx.finalize(/*execWallSeconds=*/0.1);
  EXPECT_EQ(ctx.phaseNs(Phase::QueueWait), 5'000'000);
  EXPECT_EQ(ctx.phaseNs(Phase::Apsp), 20'000'000);
  EXPECT_EQ(ctx.phaseNs(Phase::RoundScan), 30'000'000);
  EXPECT_EQ(ctx.phaseNs(Phase::Other), 50'000'000);  // 100ms - 20 - 30
  // Phases sum exactly to queue wait + exec wall after finalize.
  const double sum =
      ctx.phaseSeconds(Phase::QueueWait) + ctx.phaseSeconds(Phase::Apsp) +
      ctx.phaseSeconds(Phase::RoundScan) + ctx.phaseSeconds(Phase::Other);
  EXPECT_NEAR(sum, 0.005 + 0.1, 1e-9);
}

TEST(RequestContext, FinalizeClampsOtherAtZero) {
  RequestContext ctx("1");
  // Overlapping parallel passes can attribute more phase wall time than
  // the request's own elapsed wall; Other must not go negative.
  ctx.addPhaseNs(Phase::RoundScan, 2'000'000'000);
  ctx.finalize(/*execWallSeconds=*/1.0);
  EXPECT_EQ(ctx.phaseNs(Phase::Other), 0);
}

TEST(RequestContext, UnboundHelpersAreNoOps) {
  ASSERT_EQ(msc::obs::currentRequest(), nullptr);
  { MSC_OBS_SPAN("test.unbound_phase", Phase::RoundScan); }  // must not crash
  { const msc::obs::ScopedCpuAttribution cpu; }
}

TEST(RequestContext, SpanChargesPhaseOfContextBoundAtOpen) {
  RequestContext ctx("1");
  {
    const msc::obs::ScopedRequestBind bind(&ctx);
    MSC_OBS_SPAN("test.phase", Phase::Apsp);
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  }
  EXPECT_GT(ctx.phaseNs(Phase::Apsp), 0);
  EXPECT_EQ(ctx.phaseNs(Phase::RoundScan), 0);
  // A span opened while unbound charges nothing, even if a context is
  // bound by the time it closes.
  RequestContext late("2");
  std::optional<msc::obs::ScopedRequestBind> lateBind;
  {
    MSC_OBS_SPAN("test.phase", Phase::Apsp);
    lateBind.emplace(&late);
  }
  lateBind.reset();
  EXPECT_EQ(late.phaseNs(Phase::Apsp), 0);
}

TEST(RequestContext, ThreadCpuClockIsMonotonic) {
  const std::int64_t before = msc::obs::threadCpuNs();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  EXPECT_GE(msc::obs::threadCpuNs(), before);
}

TEST(RequestContext, PhaseNamesAreStable) {
  EXPECT_STREQ(msc::obs::phaseName(Phase::QueueWait), "queue_wait");
  EXPECT_STREQ(msc::obs::phaseName(Phase::Apsp), "apsp");
  EXPECT_STREQ(msc::obs::phaseName(Phase::RoundScan), "round_scan");
  EXPECT_STREQ(msc::obs::phaseName(Phase::Other), "other");
}

// ---- thread-pool inheritance (the TSan-relevant part) -------------------

TEST(RequestContextPool, WorkersInheritSubmitterContext) {
  RequestContext ctx("7");
  constexpr std::size_t kItems = 4096;
  std::vector<RequestContext*> seen(kItems, nullptr);
  {
    const msc::obs::ScopedRequestBind bind(&ctx);
    const msc::obs::ScopedCpuAttribution cpu;  // submitter's share
    msc::util::parallelForThreads(
        4, 0, kItems, /*grain=*/64, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            seen[i] = msc::obs::currentRequest();
            // Concurrent attribution from every chunk: relaxed atomics,
            // must be race-free under TSan.
            MSC_OBS_SPAN("test.chunk", Phase::RoundScan);
            ctx.addGainEvals(1);
            volatile double sink = 0.0;
            for (int r = 0; r < 200; ++r) sink = sink + r;
          }
        });
  }
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(seen[i], &ctx) << "chunk item " << i << " saw wrong context";
  }
  EXPECT_EQ(ctx.gainEvals(), kItems);
  EXPECT_GT(ctx.phaseNs(Phase::RoundScan), 0);
  EXPECT_GT(ctx.cpuSeconds(), 0.0);
}

TEST(RequestContextPool, NoContextLeaksToUnboundJobs) {
  RequestContext ctx("8");
  {
    const msc::obs::ScopedRequestBind bind(&ctx);
    msc::util::parallelForThreads(4, 0, 1024, 32,
                                  [](std::size_t, std::size_t) {});
  }
  // A follow-up job with no binding must see no stale context on any
  // worker (the per-job bind is scoped, not sticky).
  std::atomic<int> leaked{0};
  msc::util::parallelForThreads(
      4, 0, 1024, 32, [&](std::size_t, std::size_t) {
        if (msc::obs::currentRequest() != nullptr) leaked.fetch_add(1);
      });
  EXPECT_EQ(leaked.load(), 0);
}

TEST(RequestContextPool, TraceEventsCarryRequestId) {
  const bool wasEnabled = msc::obs::trace::enabled();
  msc::obs::trace::setEnabled(true);
  msc::obs::trace::clearAll();

  RequestContext ctx("9");
  {
    const msc::obs::ScopedRequestBind bind(&ctx);
    msc::obs::trace::instant("ctx.tagged");
    msc::util::parallelForThreads(4, 0, 2048, 16,
                                  [](std::size_t, std::size_t) {});
  }
  msc::obs::trace::instant("ctx.untagged");

  const msc::obs::trace::Snapshot snap = msc::obs::trace::snapshot();
  msc::obs::trace::setEnabled(wasEnabled);

  std::size_t tagged = 0;
  std::size_t taggedPoolChunks = 0;
  for (const auto& lane : snap.lanes) {
    for (const auto& e : lane.events) {
      if (std::string_view(e.name) == "ctx.untagged") {
        EXPECT_EQ(e.req, 0u);
      }
      if (e.req == ctx.traceId()) {
        ++tagged;
        if (std::string_view(e.name) == "pool.chunk") ++taggedPoolChunks;
      }
    }
  }
  EXPECT_GE(tagged, 2u);  // the instant + at least one pool.chunk pair
  EXPECT_GT(taggedPoolChunks, 0u)
      << "pool worker chunks did not inherit the request id";
}

// ---- flight recorder ----------------------------------------------------

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    savedDir_ = msc::obs::slowRequestDir();
    savedThreshold_ = msc::obs::slowRequestThresholdMs();
    dir_ = scratchDir("flight");
    msc::obs::setSlowRequestDir(dir_);
  }
  void TearDown() override {
    msc::obs::setSlowRequestDir(savedDir_);
    msc::obs::setSlowRequestThresholdMs(savedThreshold_);
    for (const std::string& path : createdFiles_) std::remove(path.c_str());
    ::rmdir(dir_.c_str());
  }

  std::string dir_;
  std::vector<std::string> createdFiles_;

 private:
  std::string savedDir_;
  double savedThreshold_ = 0.0;
};

TEST_F(FlightRecorderTest, DumpWritesLoadableChromeJsonWithPhaseLane) {
  const bool wasEnabled = msc::obs::trace::enabled();
  msc::obs::trace::setEnabled(true);
  msc::obs::trace::clearAll();

  RequestContext ctx("42");
  ctx.addPhaseNs(Phase::QueueWait, 1'000'000);
  ctx.addPhaseNs(Phase::Apsp, 2'000'000);
  ctx.addPhaseNs(Phase::RoundScan, 3'000'000);
  ctx.finalize(0.01);
  {
    const msc::obs::ScopedRequestBind bind(&ctx);
    msc::obs::trace::instant("flight.tagged", {{"x", 1}});
  }
  msc::obs::trace::instant("flight.untagged");

  const std::string path = msc::obs::dumpFlightRecord(ctx);
  createdFiles_.push_back(path);
  msc::obs::trace::setEnabled(wasEnabled);

  EXPECT_EQ(path, dir_ + "/slowreq_42.trace.json");
  const std::string body = readFile(path);
  ASSERT_FALSE(body.empty()) << "dump file missing or empty: " << path;

  // Perfetto-loadable = valid JSON with a traceEvents array.
  const auto doc = msc::serve::json::parse(body);
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.find("schema")->asString(), "msc.trace.v1");
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  const auto& events = doc.find("traceEvents")->asArray();

  bool sawTagged = false, sawUntagged = false;
  int phaseSlices = 0;
  for (const auto& e : events) {
    const auto* name = e.find("name");
    if (name == nullptr || !name->isString()) continue;
    if (name->asString() == "flight.tagged") sawTagged = true;
    if (name->asString() == "flight.untagged") sawUntagged = true;
    if (name->asString().rfind("phase.", 0) == 0) ++phaseSlices;
  }
  EXPECT_TRUE(sawTagged) << "request's own events missing from the dump";
  EXPECT_FALSE(sawUntagged) << "foreign events leaked into the dump";
  // queue_wait/apsp/round_scan/other, begin+end each = 8 slice events.
  EXPECT_EQ(phaseSlices, 8);
  EXPECT_NE(body.find("request.phases"), std::string::npos);
}

TEST_F(FlightRecorderTest, DumpSanitizesHostileRequestIds) {
  RequestContext ctx("\"../../etc/passwd\"");
  ctx.finalize(0.001);
  const std::string path = msc::obs::dumpFlightRecord(ctx);
  createdFiles_.push_back(path);
  // Quotes stripped, path separators neutralized: dots survive but the
  // file name contains no '/' so it cannot escape the recorder dir.
  EXPECT_EQ(path, dir_ + "/slowreq_.._.._etc_passwd.trace.json");
  const std::string fileName = path.substr(dir_.size() + 1);
  EXPECT_EQ(fileName.find('/'), std::string::npos);
  EXPECT_FALSE(readFile(path).empty());
}

TEST_F(FlightRecorderTest, NullIdFallsBackToTraceSequence) {
  RequestContext ctx("null");
  ctx.finalize(0.001);
  const std::string path = msc::obs::dumpFlightRecord(ctx);
  createdFiles_.push_back(path);
  EXPECT_EQ(path,
            dir_ + "/slowreq_req" + std::to_string(ctx.traceId()) +
                ".trace.json");
}

TEST(FlightRecorderConfig, ThresholdRoundTrips) {
  const double saved = msc::obs::slowRequestThresholdMs();
  msc::obs::setSlowRequestThresholdMs(125.0);
  EXPECT_DOUBLE_EQ(msc::obs::slowRequestThresholdMs(), 125.0);
  msc::obs::setSlowRequestThresholdMs(saved);
}

}  // namespace
