// Time-series telemetry store: periodic sim-time scrapes of a
// MetricsRegistry into per-series ring buffers with multi-resolution
// downsampling.
//
// Every other telemetry surface in the repo (MetricsRegistry, SloMonitor,
// the flight recorder) reports *cumulative* state at exit; the soak tests
// and any "when did latency start climbing?" question need *history*.
// TimeSeriesStore keeps that history with bounded memory regardless of run
// length: each series is three fixed-capacity tiers — raw scrapes, 10×
// downsampled, 100× downsampled — where a full tier compacts its oldest
// points into the next tier and the coarsest tier drops its oldest bucket.
// Buckets carry min/max/sum/count plus the first/last values, so counter
// rate() and windowed min/max/mean queries stay exact after compaction
// (only intra-bucket timing is lost, never mass).
//
// Determinism: scrapes are driven by the pipeline's virtual clock and the
// registry's registration order, so two identical seeded runs export
// bit-identical JSONL.  Nothing here touches a wall clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "emap/obs/metrics.hpp"

namespace emap::obs {

/// Retention/downsampling policy of one store.
struct TimeSeriesOptions {
  /// Master switch: with false the pipeline installs no scrape hook at all
  /// (runs stay bit-identical to pre-time-series output).
  bool enabled = false;
  /// Seconds of virtual time between scrapes.
  double scrape_interval_sec = 1.0;
  /// Points kept per tier.  Tier 0 holds raw scrapes; a full tier compacts
  /// `downsample_factor` oldest points into one coarser bucket.  With the
  /// defaults (256/256/256, factor 10) one series remembers ~256 s at full
  /// resolution, ~42 min at 10 s and ~7 h at 100 s resolution, then drops
  /// its oldest history — memory is bounded for arbitrarily long runs.
  std::size_t tier_capacity = 256;
  std::size_t downsample_factor = 10;
  /// Histograms additionally expose a p95-over-run series when true.
  bool histogram_quantiles = true;
  /// Metric families the scraper ignores entirely.  The pipeline enrolls
  /// its wall-clock-valued families (host-time measurements that differ
  /// between identical seeded runs) so the exported JSONL stays
  /// bit-identical run to run; everything else it records is driven by
  /// the virtual clock and seeded RNGs.
  std::vector<std::string> skip_families{};

  void validate() const;
};

/// One downsampled bucket: the closed interval [t_start, t_end] and the
/// aggregates of every scrape that landed in it.
struct SeriesBucket {
  double t_start_sec = 0.0;
  double t_end_sec = 0.0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;     ///< sum of scraped values (NOT histogram _sum)
  double first = 0.0;   ///< chronologically first scraped value
  double last = 0.0;    ///< chronologically last scraped value
  std::uint64_t count = 0;  ///< scrapes merged into this bucket

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// What the scraped value means (drives rate() semantics and rendering).
enum class SeriesKind { kCounter, kGauge, kSample };

const char* series_kind_name(SeriesKind kind);

/// One named series: identity plus the three retention tiers (index 0 =
/// raw, higher = coarser).
class Series {
 public:
  Series(std::string key, SeriesKind kind, std::size_t tier_capacity,
         std::size_t downsample_factor);

  void append(double t_sec, double value);

  const std::string& key() const { return key_; }
  SeriesKind kind() const { return kind_; }

  /// All retained buckets, oldest first, coarsest tier first — i.e. in
  /// chronological order across tiers (tier 2 history precedes tier 1
  /// precedes raw).
  std::vector<SeriesBucket> buckets() const;
  /// Buckets overlapping [from_sec, to_sec], chronological.
  std::vector<SeriesBucket> buckets(double from_sec, double to_sec) const;

  /// Last scraped value / its timestamp; nullopt before the first scrape.
  std::optional<double> last_value() const;
  std::optional<double> last_time_sec() const;

  /// For counter series: increase over the trailing `window_sec` ending at
  /// the newest sample, per second.  Exact across compaction (bucket
  /// first/last survive merging).  0 before two samples.
  double rate_over(double window_sec) const;
  /// Max / mean of the scraped values over the trailing window.
  double max_over(double window_sec) const;
  double mean_over(double window_sec) const;

  std::size_t total_buckets() const;
  std::size_t tier_count() const { return tiers_.size(); }
  std::size_t tier_size(std::size_t tier) const { return tiers_[tier].size(); }

 private:
  void compact_tier(std::size_t tier);

  std::string key_;
  SeriesKind kind_;
  std::size_t tier_capacity_;
  std::size_t downsample_factor_;
  std::vector<std::deque<SeriesBucket>> tiers_;  ///< [0] raw, [1] 10x, [2] 100x
  std::uint64_t dropped_buckets_ = 0;            ///< fell off the coarsest tier

 public:
  std::uint64_t dropped_buckets() const { return dropped_buckets_; }
};

/// Bounded-memory store of every scraped series.
class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(TimeSeriesOptions options = {});

  /// Samples every registered instrument at virtual time `t_sec`:
  /// counters and gauges as one series each; histograms as
  /// `<name>:count`, `<name>:sum` (both cumulative), `<name>:mean`
  /// (per-interval mean = Δsum/Δcount since the previous scrape, carrying
  /// the last mean through empty intervals) and, when
  /// options.histogram_quantiles, `<name>:p95` (quantile estimate over the
  /// whole run so far).  New registry entries get series on first sight.
  void scrape(const MetricsRegistry& registry, double t_sec);

  /// Series lookup by key (`name{label="value",...}` plus the histogram
  /// suffixes above); nullptr when never scraped.
  const Series* find(const std::string& key) const;

  /// Keys in first-scrape order (deterministic: registry registration
  /// order drives it).
  std::vector<std::string> keys() const;
  const std::vector<Series>& all() const { return series_; }

  std::uint64_t scrapes() const { return scrapes_; }
  std::size_t total_buckets() const;
  /// Upper bound on retained buckets given the retention policy — the
  /// soak test asserts total_buckets() never exceeds this.
  std::size_t bucket_capacity() const;
  /// Rough retained-memory footprint (buckets only).
  std::size_t approx_bytes() const;

  const TimeSeriesOptions& options() const { return options_; }

  /// One JSONL line per retained bucket:
  ///   {"series":...,"kind":...,"tier":N,"t0":...,"t1":...,
  ///    "min":...,"max":...,"sum":...,"count":...,"first":...,"last":...}
  /// Chronological within each series, series in first-scrape order.
  std::string to_jsonl() const;
  void write_jsonl(const std::filesystem::path& path) const;

 private:
  Series& series_for(const std::string& key, SeriesKind kind);

  TimeSeriesOptions options_;
  std::vector<Series> series_;
  std::unordered_map<std::string, std::size_t> index_;
  /// Previous cumulative sum/count per histogram series (for the
  /// per-interval mean series), keyed by the `:mean` series key.
  struct HistCursor {
    double sum = 0.0;
    std::uint64_t count = 0;
    double last_mean = 0.0;
  };
  std::unordered_map<std::string, HistCursor> hist_cursors_;
  std::uint64_t scrapes_ = 0;
};

/// Canonical series key of a registry entry: `name{k="v",...}` with the
/// labels in registry (sorted) order, `name` alone when label-free.
std::string series_key_for(const std::string& name, const Labels& labels);

/// Interval-driven scrape helper: call maybe_scrape at any virtual-time
/// checkpoint (the pipeline does so at every window boundary); it scrapes
/// at most once per scrape_interval_sec and always in forward time order.
class TimeSeriesScraper {
 public:
  /// Both pointers are borrowed and must outlive the scraper.
  TimeSeriesScraper(const MetricsRegistry* registry, TimeSeriesStore* store);

  /// Scrapes when `t_sec` has reached the next due instant (then advances
  /// the due time by whole intervals so a stalled caller catches up with
  /// ONE scrape, not a backlog).  Returns true when a scrape happened.
  bool maybe_scrape(double t_sec);

  /// Unconditional scrape (end-of-run flush).
  void scrape_now(double t_sec);

  double next_due_sec() const { return next_due_sec_; }

 private:
  const MetricsRegistry* registry_;
  TimeSeriesStore* store_;
  double next_due_sec_ = 0.0;
};

}  // namespace emap::obs
