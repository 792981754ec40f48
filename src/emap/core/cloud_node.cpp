#include "emap/core/cloud_node.hpp"

#include "emap/common/error.hpp"

namespace emap::core {

CloudNode::CloudNode(mdb::MdbStore store, const EmapConfig& config,
                     std::size_t threads)
    : config_(config),
      store_(std::move(store)),
      pool_(threads == 1 ? nullptr : std::make_unique<ThreadPool>(threads)),
      searcher_(config_, pool_.get()) {
  config_.validate();
}

void CloudNode::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = SearchMetrics{};
    return;
  }
  metrics_.requests = &registry->counter(
      "emap_search_requests_total", {}, "Cloud MDB searches served");
  metrics_.sets_scanned = &registry->counter(
      "emap_search_sets_scanned_total", {},
      "Signal-sets scanned across all searches");
  metrics_.correlation_evals = &registry->counter(
      "emap_search_correlation_evals_total", {},
      "Cross-correlation windows evaluated (Algorithm 1)");
  metrics_.candidates = &registry->counter(
      "emap_search_candidates_total", {},
      "Offsets exceeding the correlation threshold delta");
  metrics_.skip_ratio = &registry->histogram(
      "emap_search_skip_ratio", {}, obs::Histogram::linear_bounds(0.0, 1.0, 50),
      "Fraction of offsets skipped by the exponential window per search");
  metrics_.wall_seconds = &registry->histogram(
      "emap_search_wall_seconds", {}, obs::Histogram::default_latency_bounds(),
      "Measured host time of one MDB search");
}

SearchResult CloudNode::search(std::span<const double> input_window) const {
  SearchResult result = searcher_.search(input_window, store_);
  if (metrics_.requests != nullptr) {
    metrics_.requests->increment();
    metrics_.sets_scanned->increment(result.stats.sets_scanned);
    metrics_.correlation_evals->increment(result.stats.correlation_evals);
    metrics_.candidates->increment(result.stats.candidates);
    metrics_.skip_ratio->observe(result.stats.skip_ratio());
    metrics_.wall_seconds->observe(result.stats.wall_seconds);
  }
  return result;
}

net::CorrelationSetMessage CloudNode::respond(
    const net::SignalUploadMessage& request, SearchStats* stats_out) const {
  require(request.samples.size() == config_.window_length,
          "CloudNode::respond: bad request window length");
  const SearchResult result = search(request.samples);
  if (stats_out != nullptr) {
    *stats_out = result.stats;
  }

  net::CorrelationSetMessage response;
  response.request_sequence = request.sequence;
  response.entries.reserve(result.matches.size());
  for (const auto& match : result.matches) {
    net::CorrelationEntry entry;
    entry.set_id = match.set_id;
    entry.omega = static_cast<float>(match.omega);
    entry.beta = static_cast<std::uint32_t>(match.beta);
    entry.anomalous = match.anomalous ? 1 : 0;
    entry.class_tag = match.class_tag;
    const auto& samples = store_.at(match.store_index).samples;
    entry.samples.assign(samples.begin(), samples.end());  // f32 -> f64
    response.entries.push_back(std::move(entry));
  }
  return response;
}

}  // namespace emap::core
