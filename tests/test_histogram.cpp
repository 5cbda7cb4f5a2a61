#include "obs/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace {

using msc::obs::Histogram;
using msc::obs::HistogramSnapshot;

TEST(HistogramTest, EmptyHistogramReportsNaNQuantiles) {
  Histogram h;
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  EXPECT_TRUE(std::isnan(snap.min));
  EXPECT_TRUE(std::isnan(snap.max));
  EXPECT_TRUE(std::isnan(snap.p50()));
  EXPECT_TRUE(std::isnan(snap.quantile(0.0)));
  EXPECT_TRUE(std::isnan(snap.quantile(100.0)));
}

TEST(HistogramTest, SingleValueIsExactEverywhere) {
  Histogram h;
  h.record(0.125);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.125);
  EXPECT_DOUBLE_EQ(snap.min, 0.125);
  EXPECT_DOUBLE_EQ(snap.max, 0.125);
  // Every quantile of a one-sample distribution is that sample; the clamp
  // into [min, max] makes this exact despite bucketing.
  EXPECT_DOUBLE_EQ(snap.p50(), 0.125);
  EXPECT_DOUBLE_EQ(snap.p99(), 0.125);
}

TEST(HistogramTest, QuantilesAreOrderedOnRandomData) {
  Histogram h;
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> dist(-6.0, 2.0);  // latency-shaped
  for (int i = 0; i < 20000; ++i) h.record(dist(rng));
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.count, 20000u);
  const double p50 = snap.p50();
  const double p90 = snap.p90();
  const double p99 = snap.p99();
  EXPECT_LE(snap.min, p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, snap.max);
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), snap.min);
  EXPECT_DOUBLE_EQ(snap.quantile(100.0), snap.max);
}

TEST(HistogramTest, QuantileErrorIsBoundedByBucketResolution) {
  // Against an exact sorted reference, the bucketed estimate must stay
  // within the advertised 1/kSubBuckets relative error.
  Histogram h;
  std::vector<double> values;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(1e-6, 1e-1);
  for (int i = 0; i < 5000; ++i) {
    const double v = dist(rng);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  const auto snap = h.snapshot();
  const double relTol = 1.0 / Histogram::kSubBuckets + 1e-9;
  for (const double p : {10.0, 50.0, 90.0, 99.0}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    const double exact = values[std::min(rank, values.size()) - 1];
    const double est = snap.quantile(p);
    EXPECT_NEAR(est, exact, exact * relTol)
        << "p" << p << ": exact=" << exact << " est=" << est;
  }
}

TEST(HistogramTest, OutOfRangeSamplesClampButCountExactly) {
  Histogram h;
  h.record(-5.0);                       // clamps to 0
  h.record(std::numeric_limits<double>::quiet_NaN());  // clamps to 0
  h.record(1e-12);                      // below kMinTrackable
  h.record(1e9);                        // above the trackable range
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 1e9);     // min/max track the exact values
  EXPECT_DOUBLE_EQ(snap.sum, 1e-12 + 1e9);
  // Quantiles stay inside the observed range even for clamped samples.
  EXPECT_GE(snap.p50(), 0.0);
  EXPECT_LE(snap.p99(), 1e9);
}

TEST(HistogramTest, BucketCountsSumToTotalAndBoundsAreMonotone) {
  Histogram h;
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> dist(1e-9, 10.0);
  for (int i = 0; i < 1000; ++i) h.record(dist(rng));
  const auto snap = h.snapshot();
  std::uint64_t total = 0;
  for (const auto b : snap.buckets) total += b;
  EXPECT_EQ(total, snap.count);
  for (std::size_t i = 0; i + 2 < HistogramSnapshot::bucketCount(); ++i) {
    EXPECT_LT(HistogramSnapshot::upperBound(i),
              HistogramSnapshot::upperBound(i + 1))
        << "bucket bound not strictly increasing at " << i;
  }
  EXPECT_TRUE(std::isinf(
      HistogramSnapshot::upperBound(HistogramSnapshot::bucketCount() - 1)));
}

TEST(HistogramTest, ConcurrentRecordersLoseNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(1e-4 * (1 + (t * kPerThread + i) % 100));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t total = 0;
  for (const auto b : snap.buckets) total += b;
  EXPECT_EQ(total, snap.count);
  EXPECT_DOUBLE_EQ(snap.min, 1e-4);
  EXPECT_DOUBLE_EQ(snap.max, 1e-2);
  // Sum is a float accumulation but every addend is exactly representable
  // enough for a loose check.
  EXPECT_NEAR(snap.sum, kThreads * kPerThread * 1e-4 * 50.5, snap.sum * 1e-9);
}

TEST(HistogramTest, ResetZeroesButKeepsRecording) {
  Histogram h;
  h.record(1.0);
  h.reset();
  auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_TRUE(std::isnan(snap.min));
  h.record(2.0);
  snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.min, 2.0);
}

TEST(HistogramTest, RegistryReturnsSameInstanceAndResetAllClears) {
  msc::obs::resetAll();
  auto& a = msc::obs::histogram("test.registry_hist");
  auto& b = msc::obs::histogram("test.registry_hist");
  EXPECT_EQ(&a, &b);
  a.record(0.5);
  EXPECT_EQ(b.snapshot().count, 1u);
  msc::obs::resetAll();
  EXPECT_EQ(a.snapshot().count, 0u);
}

TEST(HistogramTest, RegistryRowsAreSortedByName) {
  msc::obs::resetAll();
  msc::obs::histogram("test.zzz").record(1.0);
  msc::obs::histogram("test.aaa").record(1.0);
  const auto rows = msc::obs::Registry::global().snapshot().histograms;
  std::vector<std::string> names;
  for (const auto& row : rows) names.push_back(row.name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  msc::obs::resetAll();
}

}  // namespace
