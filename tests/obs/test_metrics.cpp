#include "emap/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "emap/common/error.hpp"
#include "emap/common/rng.hpp"

namespace emap::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.increment();
  counter.increment(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Counter, ConcurrentIncrementsLoseNothing) {
  // The hot paths (ThreadPool search, scheduler stages) record from
  // many threads; every increment must land.
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.increment();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Gauge, SetAndAdd) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(-0.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.0);
}

TEST(Gauge, ConcurrentAddsLoseNothing) {
  Gauge gauge;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) {
        gauge.add(1.0);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // Integer-valued doubles accumulate exactly under the CAS loop.
  EXPECT_DOUBLE_EQ(gauge.value(), kThreads * kPerThread);
}

TEST(Histogram, EmptyStateIsWellDefined) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.0);
  EXPECT_TRUE(std::isinf(histogram.min()));
  EXPECT_TRUE(std::isinf(histogram.max()));
}

TEST(Histogram, TracksCountSumMinMax) {
  Histogram histogram(Histogram::linear_bounds(0.0, 10.0, 10));
  for (double value : {1.5, 3.5, 9.0}) {
    histogram.observe(value);
  }
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 14.0);
  EXPECT_NEAR(histogram.mean(), 14.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(histogram.min(), 1.5);
  EXPECT_DOUBLE_EQ(histogram.max(), 9.0);
}

TEST(Histogram, BucketsCoverRangeAndOverflow) {
  Histogram histogram(Histogram::linear_bounds(0.0, 3.0, 3));
  histogram.observe(0.5);   // [0, 1)
  histogram.observe(1.0);   // [1, 2): values on a bound go to the next bucket
  histogram.observe(2.5);   // [2, 3)
  histogram.observe(99.0);  // overflow
  EXPECT_EQ(histogram.bucket_count(0), 1u);
  EXPECT_EQ(histogram.bucket_count(1), 1u);
  EXPECT_EQ(histogram.bucket_count(2), 1u);
  EXPECT_EQ(histogram.bucket_count(3), 1u);  // bounds().size() == overflow
  EXPECT_THROW(histogram.bucket_count(4), InvalidArgument);
}

TEST(Histogram, RejectsInvalidBounds) {
  EXPECT_THROW(Histogram(std::vector<double>{}), InvalidArgument);
  EXPECT_THROW(Histogram(std::vector<double>{2.0, 1.0}), InvalidArgument);
  EXPECT_THROW(Histogram(std::vector<double>{1.0, 1.0}), InvalidArgument);
}

TEST(Histogram, QuantileValidatesRange) {
  Histogram histogram;
  EXPECT_THROW(histogram.quantile(-0.1), InvalidArgument);
  EXPECT_THROW(histogram.quantile(1.1), InvalidArgument);
}

TEST(Histogram, QuantileExactOnConstantStream) {
  // The clamp to the observed [min, max] makes degenerate streams exact.
  Histogram histogram;
  for (int i = 0; i < 1000; ++i) {
    histogram.observe(0.125);
  }
  for (double q : {0.0, 0.25, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram.quantile(q), 0.125);
  }
}

TEST(Histogram, QuantileApproximatesUniformDistribution) {
  // Uniform on [0.1, 1.0): the default log-spaced layout is ~9% wide per
  // bucket, so estimates should sit within a few percent of the truth.
  Histogram histogram;
  Rng rng(101);
  for (int i = 0; i < 40'000; ++i) {
    histogram.observe(rng.uniform(0.1, 1.0));
  }
  for (double q : {0.25, 0.5, 0.75, 0.9}) {
    const double truth = 0.1 + q * 0.9;
    EXPECT_NEAR(histogram.quantile(q), truth, 0.06 * truth) << "q=" << q;
  }
}

TEST(Histogram, QuantileApproximatesExponentialDistribution) {
  // Skewed latency-like distribution (mean 50 ms).
  Histogram histogram;
  Rng rng(202);
  const double mean = 0.05;
  for (int i = 0; i < 40'000; ++i) {
    histogram.observe(-mean * std::log(1.0 - rng.uniform()));
  }
  for (double q : {0.5, 0.9, 0.99}) {
    const double truth = -mean * std::log(1.0 - q);
    EXPECT_NEAR(histogram.quantile(q), truth, 0.08 * truth) << "q=" << q;
  }
}

TEST(Histogram, QuantileEndpointsClampToObservedRange) {
  Histogram histogram;
  histogram.observe(0.002);
  histogram.observe(0.004);
  histogram.observe(0.008);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.0), 0.002);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 0.008);
}

TEST(Histogram, ConcurrentObservationsLoseNothing) {
  Histogram histogram(Histogram::linear_bounds(0.0, 8.0, 8));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.observe(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  // Sum of integers is exact under the CAS accumulation loop.
  EXPECT_DOUBLE_EQ(histogram.sum(), (1 + 2 + 3 + 4) * 20'000.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 4.0);
}

TEST(Histogram, DefaultLatencyBoundsAreSane) {
  const auto bounds = Histogram::default_latency_bounds();
  ASSERT_GT(bounds.size(), 100u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  EXPECT_GT(bounds.back(), 1000.0);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(Histogram, LinearBoundsSpanTheRequestedRange) {
  const auto bounds = Histogram::linear_bounds(0.0, 1.0, 20);
  ASSERT_EQ(bounds.size(), 20u);
  EXPECT_NEAR(bounds.front(), 0.05, 1e-12);
  EXPECT_DOUBLE_EQ(bounds.back(), 1.0);
  EXPECT_THROW(Histogram::linear_bounds(1.0, 1.0, 4), InvalidArgument);
  EXPECT_THROW(Histogram::linear_bounds(0.0, 1.0, 0), InvalidArgument);
}

TEST(MetricsRegistry, SameSeriesReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("emap_events_total", {{"kind", "x"}});
  Counter& b = registry.counter("emap_events_total", {{"kind", "x"}});
  EXPECT_EQ(&a, &b);
  a.increment();
  EXPECT_EQ(b.value(), 1u);
}

TEST(MetricsRegistry, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry registry;
  Gauge& a = registry.gauge("g", {{"a", "1"}, {"b", "2"}});
  Gauge& b = registry.gauge("g", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistry, DistinctLabelsAreDistinctSeries) {
  MetricsRegistry registry;
  Counter& up = registry.counter("emap_net_messages_total",
                                 {{"direction", "up"}});
  Counter& down = registry.counter("emap_net_messages_total",
                                   {{"direction", "down"}});
  EXPECT_NE(&up, &down);
  up.increment(3);
  EXPECT_EQ(down.value(), 0u);
  // Two series, one family.
  EXPECT_EQ(registry.entries().size(), 2u);
  EXPECT_EQ(registry.family_count(), 1u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("metric");
  EXPECT_THROW(registry.gauge("metric"), InvalidArgument);
  EXPECT_THROW(registry.histogram("metric"), InvalidArgument);
  EXPECT_THROW(registry.counter(""), InvalidArgument);
}

TEST(MetricsRegistry, CardinalityGuardCapsSeriesPerFamily) {
  constexpr std::size_t kCap = MetricsRegistry::kMaxSeriesPerFamily;
  MetricsRegistry registry;
  std::vector<Counter*> counters;
  for (std::size_t i = 0; i < kCap + 6; ++i) {
    counters.push_back(&registry.counter(
        "emap_runaway_total", {{"id", std::to_string(i)}}));
  }

  EXPECT_EQ(registry.dropped_series(), 6u);
  // The first kCap label sets registered; the rest share one unregistered
  // sink that is reference-stable and still counts increments.
  EXPECT_NE(counters[kCap - 1], counters[kCap]);
  EXPECT_EQ(counters[kCap], counters[kCap + 1]);
  EXPECT_EQ(counters[kCap], counters[kCap + 5]);
  counters[kCap]->increment();
  EXPECT_EQ(counters[kCap + 5]->value(), 1u);
  // Dropped registrations are visible as a metric, labelled by family.
  EXPECT_EQ(registry
                .counter("emap_metrics_dropped_series_total",
                         {{"metric", "emap_runaway_total"}})
                .value(),
            6u);
  // The sink never appears in the exported entries: kCap runaway series
  // plus the dropped-series counter itself.
  std::size_t runaway_entries = 0;
  for (const MetricEntry* entry : registry.entries()) {
    runaway_entries += entry->name == "emap_runaway_total" ? 1 : 0;
  }
  EXPECT_EQ(runaway_entries, kCap);
}

TEST(MetricsRegistry, CardinalityGuardCoversEveryInstrumentKind) {
  constexpr std::size_t kCap = MetricsRegistry::kMaxSeriesPerFamily;
  MetricsRegistry registry;
  for (std::size_t i = 0; i < kCap; ++i) {
    const Labels labels = {{"i", std::to_string(i)}};
    registry.counter("c", labels);
    registry.gauge("g", labels);
    registry.histogram("h", labels);
  }
  EXPECT_EQ(registry.dropped_series(), 0u);
  const Labels past_cap = {{"i", std::to_string(kCap)}};
  Gauge& sunk_gauge = registry.gauge("g", past_cap);
  Histogram& sunk_histogram = registry.histogram("h", past_cap);

  EXPECT_EQ(registry.dropped_series(), 2u);
  sunk_gauge.set(3.0);  // recording into a sink is safe
  sunk_histogram.observe(0.5);
  EXPECT_EQ(sunk_histogram.count(), 1u);
  // Re-requesting an already-registered series is NOT a drop.
  registry.gauge("g", {{"i", "0"}});
  EXPECT_EQ(registry.dropped_series(), 2u);
  EXPECT_EQ(registry
                .counter("emap_metrics_dropped_series_total",
                         {{"metric", "g"}})
                .value(),
            1u);
  EXPECT_EQ(registry
                .counter("emap_metrics_dropped_series_total",
                         {{"metric", "h"}})
                .value(),
            1u);
}

TEST(MetricsRegistry, DefaultCapIsGenerous) {
  MetricsRegistry registry;
  EXPECT_EQ(MetricsRegistry::kMaxSeriesPerFamily, 1000u);
  EXPECT_EQ(registry.dropped_series(), 0u);
}

TEST(MetricsRegistry, EntriesKeepRegistrationOrder) {
  MetricsRegistry registry;
  registry.counter("first");
  registry.gauge("second");
  registry.histogram("third");
  const auto entries = registry.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0]->name, "first");
  EXPECT_EQ(entries[0]->kind, MetricKind::kCounter);
  EXPECT_EQ(entries[1]->name, "second");
  EXPECT_EQ(entries[1]->kind, MetricKind::kGauge);
  EXPECT_EQ(entries[2]->name, "third");
  EXPECT_EQ(entries[2]->kind, MetricKind::kHistogram);
}

}  // namespace
}  // namespace emap::obs
