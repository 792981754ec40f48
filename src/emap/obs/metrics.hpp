// Telemetry metrics: counters, gauges, and latency histograms behind a
// named registry.
//
// The paper's headline claims are timing claims (Eq. 4's Δ_initial ≈ 3 s,
// sub-second edge iterations, the 6.8× search speedup); this module gives
// every layer of the reproduction one uniform way to record them.  All
// instruments are lock-free on the hot path (atomics only), so the
// ThreadPool-parallel cloud search and the threaded scheduler's stages
// can record without contention; the registry itself takes a mutex only on
// metric creation/lookup, and call sites cache the returned references.
//
// Dependency-free by design: standard library only.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace emap::obs {

/// Metric labels (Prometheus-style key/value pairs), kept sorted by key so
/// the same label set always maps to the same time series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
 public:
  void increment(std::uint64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (queue depth, set size, utilization).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with a streaming quantile estimator.
///
/// Observations land in atomic buckets below ascending upper bounds (plus
/// an overflow bucket), so recording is wait-free.  quantile() interpolates
/// within the covering bucket and clamps to the observed [min, max], which
/// makes constant streams exact and bounds the relative error of the
/// default log-spaced layout at roughly half a bucket width (~4%).
class Histogram {
 public:
  /// `bounds` are strictly ascending bucket upper bounds; values above the
  /// last bound land in the overflow bucket.
  explicit Histogram(std::vector<double> bounds = default_latency_bounds());

  void observe(double value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  /// Smallest/largest observed value; +inf/-inf when empty.
  double min() const { return min_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }

  /// Estimated q-quantile (q in [0, 1]); 0 when empty.
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket `index` (index == bounds().size() is overflow).
  std::uint64_t bucket_count(std::size_t index) const;

  /// Log-spaced bounds covering 1 µs .. ~1000 s at ~9% resolution — the
  /// default layout for latency observations.
  static std::vector<double> default_latency_bounds();
  /// `count` equal-width buckets spanning [lo, hi] (for bounded quantities
  /// such as ratios and probabilities).
  static std::vector<double> linear_bounds(double lo, double hi,
                                           std::size_t count);

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds_.size()+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Kind tag of a registered metric (drives exporter formatting).
enum class MetricKind { kCounter, kGauge, kHistogram };

/// One registered time series: a name, a label set, and its instrument.
struct MetricEntry {
  std::string name;
  Labels labels;
  std::string help;
  MetricKind kind;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

/// Thread-safe named metric registry.
///
/// Lookup-or-create is mutex-guarded; the returned references stay valid
/// for the registry's lifetime (entries are never removed), so hot paths
/// look up once and record lock-free thereafter.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {},
               const std::string& help = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {},
                       std::vector<double> bounds =
                           Histogram::default_latency_bounds(),
                       const std::string& help = {});

  /// Snapshot of the registered entries in registration order.  The
  /// pointers remain valid while the registry lives.
  std::vector<const MetricEntry*> entries() const;

  /// Number of distinct metric names (families), ignoring label sets.
  std::size_t family_count() const;

  /// Cardinality guard: at most this many distinct label-sets per metric
  /// family.  Registrations past the cap return an unregistered sink
  /// instrument (reference-stable, recorded into but never exported or
  /// scraped), bump `emap_metrics_dropped_series_total{metric="<family>"}`,
  /// and warn on stderr once per family — a labels-from-user-input bug
  /// degrades into one counter instead of unbounded registry growth.
  static constexpr std::size_t kMaxSeriesPerFamily = 1000;
  /// Series registrations refused by the guard so far.
  std::uint64_t dropped_series() const {
    return dropped_series_.load(std::memory_order_relaxed);
  }

 private:
  MetricEntry& lookup(const std::string& name, const Labels& labels,
                      const std::string& help, MetricKind kind,
                      std::vector<double>* bounds);
  /// lookup with mutex_ already held (the drop path re-enters to register
  /// the dropped-series counter).
  MetricEntry& lookup_locked(const std::string& name, const Labels& labels,
                             const std::string& help, MetricKind kind,
                             std::vector<double>* bounds);
  MetricEntry& sink_for(MetricKind kind, std::vector<double>* bounds);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<MetricEntry>> entries_;
  std::unordered_map<std::string, std::size_t> index_;  // name+labels -> slot
  std::unordered_map<std::string, std::size_t> family_series_;
  std::unordered_map<std::string, bool> family_warned_;
  std::unique_ptr<MetricEntry> sinks_[3];  // one per MetricKind
  std::atomic<std::uint64_t> dropped_series_{0};
};

}  // namespace emap::obs
