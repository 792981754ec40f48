#include "emap/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "emap/common/error.hpp"

namespace emap::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  require(!bounds_.empty(), "Histogram: need at least one bucket bound");
  require(std::is_sorted(bounds_.begin(), bounds_.end()) &&
              std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                  bounds_.end(),
          "Histogram: bounds must be strictly ascending");
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double value) {
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);

  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
  double low = min_.load(std::memory_order_relaxed);
  while (value < low && !min_.compare_exchange_weak(
                            low, value, std::memory_order_relaxed)) {
  }
  double high = max_.load(std::memory_order_relaxed);
  while (value > high && !max_.compare_exchange_weak(
                             high, value, std::memory_order_relaxed)) {
  }
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

std::uint64_t Histogram::bucket_count(std::size_t index) const {
  require(index <= bounds_.size(), "Histogram::bucket_count: index range");
  return counts_[index].load(std::memory_order_relaxed);
}

double Histogram::quantile(double q) const {
  require(q >= 0.0 && q <= 1.0, "Histogram::quantile: q must be in [0, 1]");
  const std::uint64_t total = count();
  if (total == 0) {
    return 0.0;
  }
  // Rank of the requested quantile within a snapshot of the buckets.
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const auto in_bucket = static_cast<double>(
        counts_[i].load(std::memory_order_relaxed));
    if (in_bucket == 0.0) {
      continue;
    }
    if (cumulative + in_bucket >= target) {
      // Interpolate linearly inside the covering bucket, then clamp to the
      // observed range so degenerate streams (all-equal values) are exact.
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = i == bounds_.size() ? max() : bounds_[i];
      const double fraction =
          std::clamp((target - cumulative) / in_bucket, 0.0, 1.0);
      return std::clamp(lo + fraction * (hi - lo), min(), max());
    }
    cumulative += in_bucket;
  }
  return max();
}

std::vector<double> Histogram::default_latency_bounds() {
  // 1 µs .. ~1073 s, eight buckets per octave (factor 2^(1/8) ≈ 1.09).
  std::vector<double> bounds;
  const double factor = std::pow(2.0, 1.0 / 8.0);
  for (double bound = 1e-6; bound <= 1100.0; bound *= factor) {
    bounds.push_back(bound);
  }
  return bounds;
}

std::vector<double> Histogram::linear_bounds(double lo, double hi,
                                             std::size_t count) {
  require(hi > lo, "Histogram::linear_bounds: hi must exceed lo");
  require(count >= 1, "Histogram::linear_bounds: need at least one bucket");
  std::vector<double> bounds(count);
  const double width = (hi - lo) / static_cast<double>(count);
  for (std::size_t i = 0; i < count; ++i) {
    bounds[i] = lo + width * static_cast<double>(i + 1);
  }
  bounds.back() = hi;  // exact upper edge despite accumulation error
  return bounds;
}

namespace {

std::string series_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [label, value] : labels) {
    key += '\x1f';
    key += label;
    key += '\x1e';
    key += value;
  }
  return key;
}

Labels sorted_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

MetricEntry& MetricsRegistry::sink_for(MetricKind kind,
                                       std::vector<double>* bounds) {
  auto& sink = sinks_[static_cast<std::size_t>(kind)];
  if (!sink) {
    sink = std::make_unique<MetricEntry>();
    sink->name = "emap_dropped_series_sink";
    sink->kind = kind;
    switch (kind) {
      case MetricKind::kCounter:
        sink->counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        sink->gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kHistogram:
        sink->histogram = std::make_unique<Histogram>(
            bounds != nullptr && !bounds->empty()
                ? *bounds
                : Histogram::default_latency_bounds());
        break;
    }
  }
  return *sink;
}

MetricEntry& MetricsRegistry::lookup(const std::string& name,
                                     const Labels& labels,
                                     const std::string& help, MetricKind kind,
                                     std::vector<double>* bounds) {
  require(!name.empty(), "MetricsRegistry: metric name must not be empty");
  std::lock_guard<std::mutex> lock(mutex_);
  return lookup_locked(name, labels, help, kind, bounds);
}

MetricEntry& MetricsRegistry::lookup_locked(const std::string& name,
                                            const Labels& labels,
                                            const std::string& help,
                                            MetricKind kind,
                                            std::vector<double>* bounds) {
  const Labels sorted = sorted_labels(labels);
  const std::string key = series_key(name, sorted);
  const auto found = index_.find(key);
  if (found != index_.end()) {
    MetricEntry& entry = *entries_[found->second];
    require(entry.kind == kind,
            "MetricsRegistry: metric already registered with another kind");
    return entry;
  }
  // Cardinality guard: refuse the cap-breaking label-set, account for it,
  // and hand back a sink so the (cached) call site still has a live
  // instrument to record into.
  if (family_series_[name] >= kMaxSeriesPerFamily) {
    dropped_series_.fetch_add(1, std::memory_order_relaxed);
    if (name != "emap_metrics_dropped_series_total") {
      // The recursion is bounded: the inner name differs from the outer,
      // and the drop counter never re-enters for itself.
      lookup_locked("emap_metrics_dropped_series_total", {{"metric", name}},
                    "Series registrations refused by the cardinality guard",
                    MetricKind::kCounter, nullptr)
          .counter->increment();
    }
    if (!family_warned_[name]) {
      family_warned_[name] = true;
      std::fprintf(stderr,
                   "emap: metric family '%s' hit the %zu-series cardinality "
                   "cap; further label-sets are dropped\n",
                   name.c_str(), kMaxSeriesPerFamily);
    }
    return sink_for(kind, bounds);
  }
  auto entry = std::make_unique<MetricEntry>();
  entry->name = name;
  entry->labels = sorted;
  entry->help = help;
  entry->kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      entry->histogram = std::make_unique<Histogram>(std::move(*bounds));
      break;
  }
  index_.emplace(key, entries_.size());
  entries_.push_back(std::move(entry));
  ++family_series_[name];
  return *entries_.back();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels,
                                  const std::string& help) {
  return *lookup(name, labels, help, MetricKind::kCounter, nullptr).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels,
                              const std::string& help) {
  return *lookup(name, labels, help, MetricKind::kGauge, nullptr).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels,
                                      std::vector<double> bounds,
                                      const std::string& help) {
  return *lookup(name, labels, help, MetricKind::kHistogram, &bounds)
              .histogram;
}

std::vector<const MetricEntry*> MetricsRegistry::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const MetricEntry*> view;
  view.reserve(entries_.size());
  for (const auto& entry : entries_) {
    view.push_back(entry.get());
  }
  return view;
}

std::size_t MetricsRegistry::family_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& entry : entries_) {
    names.push_back(entry->name);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names.size();
}

}  // namespace emap::obs
