// The cloud node: hosts the mega-database and serves cross-correlation
// search requests (paper Fig. 3, middle).
#pragma once

#include <memory>
#include <span>

#include "emap/common/thread_pool.hpp"
#include "emap/core/config.hpp"
#include "emap/core/search.hpp"
#include "emap/mdb/store.hpp"
#include "emap/net/transport.hpp"
#include "emap/obs/metrics.hpp"

namespace emap::core {

/// Cloud-side service wrapping Algorithm 1 over an owned MdbStore.
class CloudNode {
 public:
  /// `threads` = 0 selects hardware concurrency; 1 disables parallelism.
  CloudNode(mdb::MdbStore store, const EmapConfig& config,
            std::size_t threads = 0);

  const mdb::MdbStore& store() const { return store_; }
  const EmapConfig& config() const { return config_; }

  /// Runs Algorithm 1 for one filtered input window.
  SearchResult search(std::span<const double> input_window) const;

  /// Full request path: decodes nothing (message is already structured),
  /// runs the search, and packages the correlation set with the matched
  /// signal-sets' samples for download.  The search stats land in
  /// `stats_out` when non-null; nothing is shared between calls, so
  /// concurrent uplink workers may call it.
  net::CorrelationSetMessage respond(const net::SignalUploadMessage& request,
                                     SearchStats* stats_out = nullptr) const;

  /// Attaches a telemetry registry (borrowed; nullptr disables).  Every
  /// search then records scan counters, the exponential-window skip ratio,
  /// and wall-time into `emap_search_*` metrics.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  EmapConfig config_;
  mdb::MdbStore store_;
  std::unique_ptr<ThreadPool> pool_;
  CrossCorrelationSearch searcher_;

  /// Cached instrument handles (registry lookups happen once, in
  /// set_metrics, keeping the search hot path lock-free).
  struct SearchMetrics {
    obs::Counter* requests = nullptr;
    obs::Counter* sets_scanned = nullptr;
    obs::Counter* correlation_evals = nullptr;
    obs::Counter* candidates = nullptr;
    obs::Histogram* skip_ratio = nullptr;
    obs::Histogram* wall_seconds = nullptr;
  };
  SearchMetrics metrics_{};
};

}  // namespace emap::core
