#include "obs/prom_export.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using msc::obs::Registry;

class PromExportTest : public ::testing::Test {
 protected:
  void SetUp() override { msc::obs::resetAll(); }
  void TearDown() override { msc::obs::resetAll(); }
};

// Splits exposition output into non-comment sample lines.
std::vector<std::string> sampleLines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) {
    if (!line.empty() && line[0] != '#') out.push_back(line);
  }
  return out;
}

TEST(PromSanitizeTest, MapsInvalidCharactersToUnderscore) {
  EXPECT_EQ(msc::obs::promSanitizeName("serve.cache.apsp_hits"),
            "serve_cache_apsp_hits");
  EXPECT_EQ(msc::obs::promSanitizeName("a-b c\"d"), "a_b_c_d");
  EXPECT_EQ(msc::obs::promSanitizeName("keeps:colons_and_09"),
            "keeps:colons_and_09");
}

TEST(PromSanitizeTest, GuardsLeadingDigitAndEmpty) {
  EXPECT_EQ(msc::obs::promSanitizeName("9lives"), "_9lives");
  EXPECT_EQ(msc::obs::promSanitizeName(""), "_");
}

TEST_F(PromExportTest, CountersBecomeTotalSeries) {
  msc::obs::counter("dijkstra.runs").add(7);
  const std::string text = msc::obs::toProm(Registry::global().snapshot());
  EXPECT_NE(text.find("# TYPE msc_dijkstra_runs_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("msc_dijkstra_runs_total 7"), std::string::npos);
}

TEST_F(PromExportTest, LabeledFamiliesShareOneHeaderAndGaugesKeepTheirName) {
  msc::obs::counter("q.served", "kind=\"row\"", "queries by kind").add(3);
  msc::obs::counter("q.served", "kind=\"point\"").add(1);
  msc::obs::gauge("q.depth", {}, "queue depth").set(2.5);
  const std::string text = msc::obs::toProm(Registry::global().snapshot());
  EXPECT_NE(text.find("# HELP msc_q_served_total queries by kind\n"
                      "# TYPE msc_q_served_total counter\n"
                      "msc_q_served_total{kind=\"point\"} 1\n"
                      "msc_q_served_total{kind=\"row\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE msc_q_depth gauge\nmsc_q_depth 2.5\n"),
            std::string::npos)
      << text;
}

TEST_F(PromExportTest, StatsBecomeSummariesWithGauges) {
  auto& s = msc::obs::stat("span.apsp");
  s.record(1.0);
  s.record(3.0);
  const std::string text = msc::obs::toProm(Registry::global().snapshot());
  EXPECT_NE(text.find("# TYPE msc_span_apsp summary"), std::string::npos);
  EXPECT_NE(text.find("msc_span_apsp_count 2"), std::string::npos);
  EXPECT_NE(text.find("msc_span_apsp_sum 4"), std::string::npos);
  EXPECT_NE(text.find("msc_span_apsp_min 1"), std::string::npos);
  EXPECT_NE(text.find("msc_span_apsp_max 3"), std::string::npos);
}

TEST_F(PromExportTest, EmptyStatsOmitMinMaxInsteadOfNaN) {
  // A never-recorded stat has no min/max; the exposition omits those gauges
  // entirely rather than print NaN — some collectors reject a whole scrape
  // over a single NaN sample, and a freshly started server must never
  // serve such a page. Recorded non-finite values still use the Prometheus
  // literals (the text format, unlike JSON, has them).
  msc::obs::stat("span.empty");
  msc::obs::stat("span.inf").record(std::numeric_limits<double>::infinity());
  const std::string text = msc::obs::toProm(Registry::global().snapshot());
  EXPECT_EQ(text.find("msc_span_empty_min"), std::string::npos);
  EXPECT_EQ(text.find("msc_span_empty_max"), std::string::npos);
  EXPECT_NE(text.find("msc_span_empty_count 0"), std::string::npos);
  EXPECT_NE(text.find("msc_span_empty_sum 0"), std::string::npos);
  EXPECT_NE(text.find("msc_span_inf_max +Inf"), std::string::npos);
  EXPECT_EQ(text.find("NaN"), std::string::npos);
  // And never a bare lowercase literal JSON would reject anyway.
  EXPECT_EQ(text.find(" nan"), std::string::npos);
  EXPECT_EQ(text.find(" inf"), std::string::npos);
}

TEST_F(PromExportTest, HistogramBucketsAreCumulativeAndClosed) {
  auto& h = msc::obs::histogram("serve.request_seconds");
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-4);  // 0.1ms .. 100ms
  const std::string text = msc::obs::toProm(Registry::global().snapshot());
  EXPECT_NE(text.find("# TYPE msc_serve_request_seconds histogram"),
            std::string::npos);

  // Parse the _bucket series back: le values must be increasing, counts
  // non-decreasing, and the +Inf bucket must equal _count.
  std::uint64_t lastCount = 0;
  double lastLe = -1.0;
  std::uint64_t infCount = 0;
  int bucketLines = 0;
  bool sawInf = false;
  for (const std::string& line : sampleLines(text)) {
    const std::string prefix = "msc_serve_request_seconds_bucket{le=\"";
    if (line.rfind(prefix, 0) != 0) continue;
    ++bucketLines;
    const auto closeQuote = line.find('"', prefix.size());
    ASSERT_NE(closeQuote, std::string::npos);
    const std::string leStr = line.substr(prefix.size(),
                                          closeQuote - prefix.size());
    const std::uint64_t count =
        std::stoull(line.substr(line.find("} ") + 2));
    EXPECT_GE(count, lastCount) << "bucket counts must be cumulative";
    lastCount = count;
    if (leStr == "+Inf") {
      sawInf = true;
      infCount = count;
    } else {
      const double le = std::stod(leStr);
      EXPECT_GT(le, lastLe) << "le boundaries must increase";
      lastLe = le;
    }
  }
  EXPECT_GT(bucketLines, 2);
  EXPECT_TRUE(sawInf) << "le=\"+Inf\" bucket is mandatory";
  EXPECT_EQ(infCount, 1000u);
  EXPECT_NE(text.find("msc_serve_request_seconds_count 1000"),
            std::string::npos);

  // _sum must match the recorded total: sum_{1..1000} i*1e-4 = 50.05.
  const auto sumPos = text.find("msc_serve_request_seconds_sum ");
  ASSERT_NE(sumPos, std::string::npos);
  const double sum = std::stod(
      text.substr(sumPos + std::string("msc_serve_request_seconds_sum ").size()));
  EXPECT_NEAR(sum, 50.05, 1e-6);
}

TEST_F(PromExportTest, EmptyHistogramStillExportsClosedSeries) {
  msc::obs::histogram("idle.seconds");
  const std::string text = msc::obs::toProm(Registry::global().snapshot());
  EXPECT_NE(text.find("msc_idle_seconds_bucket{le=\"+Inf\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("msc_idle_seconds_count 0"), std::string::npos);
  EXPECT_NE(text.find("msc_idle_seconds_sum 0"), std::string::npos);
}

TEST_F(PromExportTest, EmptyRegistryProducesEmptyOutput) {
  // A fresh registry: the global one keeps earlier tests' registrations.
  EXPECT_EQ(msc::obs::toProm(Registry().snapshot()), "");
}

TEST_F(PromExportTest, HostileNamesProduceWellFormedLines) {
  msc::obs::counter("weird name{with=\"labels\"}").add(1);
  const std::string text = msc::obs::toProm(Registry::global().snapshot());
  EXPECT_NE(text.find("msc_weird_name_with__labels___total 1"),
            std::string::npos);
  // Every sample line must be `name[{labels}] value` with a sanitized name.
  for (const std::string& line : sampleLines(text)) {
    const auto space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    // The bare metric name ends at the label block when one is present.
    const std::string name = line.substr(0, std::min(line.find('{'), space));
    for (const char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      EXPECT_TRUE(ok) << "bad char '" << c << "' in series name " << line;
    }
  }
}

TEST_F(PromExportTest, TraceLaneDropCountersAreExported) {
  namespace trace = msc::obs::trace;
  const bool wasTracing = trace::enabled();
  const std::size_t savedCapacity = trace::bufferCapacity();
  trace::setEnabled(true);
  trace::setBufferCapacity(1);
  trace::clearAll();  // applies the tiny capacity to existing lanes
  trace::setCurrentThreadName("prom.test");
  trace::instant("prom.seed");
  // Zero-drop lanes are still exported: a rate() query wants a flat 0, not
  // an absent series that appears only after the first loss.
  EXPECT_NE(msc::obs::toProm(Registry::global().snapshot())
                .find("msc_trace_dropped_events_total{lane=\""),
            std::string::npos);

  trace::instant("prom.wrap1");
  trace::instant("prom.wrap2");  // ring holds 1 event: two overwritten
  const std::string text = msc::obs::toProm(Registry::global().snapshot());
  trace::setBufferCapacity(savedCapacity);
  trace::clearAll();
  trace::setEnabled(wasTracing);

  EXPECT_NE(text.find("# TYPE msc_trace_dropped_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("thread=\"prom.test\""), std::string::npos);
  std::uint64_t maxDropped = 0;
  for (const std::string& line : sampleLines(text)) {
    if (line.rfind("msc_trace_dropped_events_total{", 0) != 0) continue;
    maxDropped = std::max<std::uint64_t>(
        maxDropped, std::stoull(line.substr(line.find("} ") + 2)));
  }
  EXPECT_GE(maxDropped, 2u);
}

TEST_F(PromExportTest, WritePromFileRoundTrips) {
  msc::obs::counter("file.test").add(5);
  const std::string path = ::testing::TempDir() + "prom_export_test.prom";
  msc::obs::writePromFile(path, Registry::global().snapshot());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("msc_file_test_total 5"), std::string::npos);
}

}  // namespace
