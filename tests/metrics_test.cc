// Tests for the always-on metrics registry (common/metrics.h): histogram
// quantile accuracy against an exact sorted reference, bucket-boundary
// edge cases, multithreaded counting (run under TSan in CI), and the two
// render formats.
//
// The registry is process-global, so every test uses metric names under
// a test_-prefixed family and asserts exact values only on series it
// created itself.
#include "common/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "service/json.h"

namespace licm::metrics {
namespace {

// Exact reference quantile, matching the snapshot's rank convention
// (rank = q * (count - 1), linear interpolation between order stats).
double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

TEST(Histogram, QuantilesTrackExactReferenceWithinBucketWidth) {
  std::mt19937_64 rng(7);
  // Mixed regimes: sub-millisecond, uniform mid-range, and a heavy tail,
  // like a realistic latency distribution.
  std::uniform_real_distribution<double> uniform(0.5, 200.0);
  std::lognormal_distribution<double> tail(3.0, 1.2);
  std::vector<double> values;
  Histogram h;
  for (int i = 0; i < 20000; ++i) {
    const double v = (i % 3 == 0) ? tail(rng) : uniform(rng);
    values.push_back(v);
    h.Observe(v);
  }
  const HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(static_cast<int64_t>(values.size()), snap.count);
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = ExactQuantile(values, q);
    const double est = snap.Quantile(q);
    // Sub-bucket width bounds the relative error at 1/kSubBuckets; the
    // margin covers the exact reference interpolating across a bucket
    // boundary between adjacent order statistics.
    EXPECT_NEAR(est, exact, exact * (1.05 / Histogram::kSubBuckets) + 1e-9)
        << "q=" << q;
  }
  // Sum is exact (modulo fp addition order), so the mean is too.
  double sum = 0;
  for (double v : values) sum += v;
  EXPECT_NEAR(snap.sum, sum, 1e-6 * sum);
}

TEST(Histogram, BucketBoundariesRoundTrip) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> exp_range(-18.0, 42.0);
  for (int i = 0; i < 5000; ++i) {
    const double v = std::exp2(exp_range(rng));
    const int idx = Histogram::BucketIndex(v);
    ASSERT_GT(idx, 0) << v;
    ASSERT_LT(idx, Histogram::kBuckets - 1) << v;
    EXPECT_GE(v, Histogram::BucketLowerBound(idx)) << v;
    EXPECT_LT(v, Histogram::BucketUpperBound(idx)) << v;
  }
  // Bucket bounds tile the range: each upper bound is the next lower
  // bound.
  for (int idx = 1; idx < Histogram::kBuckets - 2; ++idx) {
    EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(idx),
                     Histogram::BucketLowerBound(idx + 1))
        << idx;
  }
}

TEST(Histogram, EdgeValuesLandInUnderflowAndOverflow) {
  EXPECT_EQ(0, Histogram::BucketIndex(0.0));
  EXPECT_EQ(0, Histogram::BucketIndex(-1.0));
  EXPECT_EQ(0, Histogram::BucketIndex(1e-30));
  EXPECT_EQ(0, Histogram::BucketIndex(std::nan("")));
  EXPECT_EQ(Histogram::kBuckets - 1, Histogram::BucketIndex(1e300));
  EXPECT_EQ(Histogram::kBuckets - 1,
            Histogram::BucketIndex(std::numeric_limits<double>::infinity()));

  Histogram h;
  h.Observe(0.0);
  h.Observe(-3.0);
  h.Observe(1e300);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(3, snap.count);
  EXPECT_EQ(2, snap.buckets.front());
  EXPECT_EQ(1, snap.buckets.back());
  // Quantiles stay finite even when everything is in the overflow
  // bucket: the walk clamps to the bucket's lower bound.
  EXPECT_TRUE(std::isfinite(snap.Quantile(0.999)));
}

TEST(Histogram, EmptySnapshotIsZeroEverywhere) {
  Histogram h;
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(0, snap.count);
  EXPECT_EQ(0.0, snap.Quantile(0.5));
  EXPECT_EQ(0.0, snap.Min());
  EXPECT_EQ(0.0, snap.Max());
  EXPECT_EQ(0.0, snap.Mean());
}

// Multithreaded hammer: totals must be exact across shards. CI runs this
// binary under TSan, which also checks the relaxed-atomics discipline.
TEST(Metrics, ConcurrentUpdatesCountExactly) {
  Counter counter;
  Gauge gauge;
  Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        gauge.Add(1.0);
        hist.Observe(static_cast<double>((t * kPerThread + i) % 1000) + 0.5);
      }
      for (int i = 0; i < kPerThread; ++i) gauge.Add(-1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(kThreads * kPerThread, counter.Value());
  EXPECT_EQ(0.0, gauge.Value());
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(kThreads * kPerThread, snap.count);
}

TEST(Registry, SeriesPointersAreStableAndLabelScoped) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  Counter* a = reg.GetCounter("test_registry_total", {{"case", "a"}});
  Counter* b = reg.GetCounter("test_registry_total", {{"case", "b"}});
  EXPECT_NE(a, b);
  // Same name+labels -> same series, and label order does not matter.
  EXPECT_EQ(a, reg.GetCounter("test_registry_total", {{"case", "a"}}));
  Counter* multi = reg.GetCounter("test_registry_multilabel_total",
                                  {{"x", "1"}, {"y", "2"}});
  EXPECT_EQ(multi, reg.GetCounter("test_registry_multilabel_total",
                                  {{"y", "2"}, {"x", "1"}}));
  a->Increment(3);
  b->Increment(4);
  EXPECT_EQ(3, a->Value());
  EXPECT_EQ(4, b->Value());
  EXPECT_EQ(7, reg.CounterTotal("test_registry_total"));
  EXPECT_EQ(0, reg.CounterTotal("test_registry_never_created"));
}

TEST(Registry, RenderPrometheusExposesAllThreeTypes) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.GetCounter("test_prom_hits_total", {{"kind", "x"}})->Increment(5);
  reg.GetGauge("test_prom_depth")->Set(2.5);
  Histogram* h = reg.GetHistogram("test_prom_latency_ms");
  h->Observe(1.0);
  h->Observe(100.0);
  const std::string text = reg.RenderPrometheus();
  EXPECT_NE(std::string::npos,
            text.find("# TYPE test_prom_hits_total counter"));
  EXPECT_NE(std::string::npos,
            text.find("test_prom_hits_total{kind=\"x\"} 5"));
  EXPECT_NE(std::string::npos, text.find("# TYPE test_prom_depth gauge"));
  EXPECT_NE(std::string::npos, text.find("test_prom_depth 2.5"));
  EXPECT_NE(std::string::npos,
            text.find("# TYPE test_prom_latency_ms histogram"));
  EXPECT_NE(std::string::npos,
            text.find("test_prom_latency_ms_bucket{le=\"+Inf\"} 2"));
  EXPECT_NE(std::string::npos, text.find("test_prom_latency_ms_count 2"));
}

TEST(Registry, RenderJsonParsesAndCarriesQuantiles) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  Histogram* h = reg.GetHistogram("test_json_latency_ms");
  for (int i = 1; i <= 100; ++i) h->Observe(static_cast<double>(i));
  auto parsed = service::ParseJson(reg.RenderJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const service::JsonValue* hists = parsed->Find("histograms");
  ASSERT_NE(nullptr, hists);
  bool found = false;
  for (const auto& entry : hists->array) {
    auto name = entry.GetString("name", "");
    ASSERT_TRUE(name.ok());
    if (*name != "test_json_latency_ms") continue;
    found = true;
    EXPECT_EQ(100, entry.GetInt("count", 0).value());
    const double p50 = entry.GetNumber("p50", 0).value();
    EXPECT_NEAR(50.0, p50, 50.0 / Histogram::kSubBuckets + 1e-9);
    EXPECT_LE(p50, entry.GetNumber("p99", 0).value());
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace licm::metrics
