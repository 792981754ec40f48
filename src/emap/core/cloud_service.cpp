#include "emap/core/cloud_service.hpp"

#include <algorithm>
#include <string>

#include "emap/common/error.hpp"
#include "emap/obs/flight.hpp"
#include "emap/obs/span.hpp"
#include "emap/obs/timeseries.hpp"

namespace emap::core {

CloudService::CloudService(mdb::MdbStore store, const EmapConfig& config,
                           std::size_t virtual_workers)
    : node_(std::move(store), config, /*threads=*/1),
      device_(sim::cloud_i7()),
      virtual_workers_(virtual_workers) {
  require(virtual_workers_ >= 1, "CloudService: need at least one worker");
}

void CloudService::set_metrics(obs::MetricsRegistry* registry) {
  registry_ = registry;
  node_.set_metrics(registry);
  if (registry == nullptr) {
    metrics_ = ServiceMetrics{};
    return;
  }
  metrics_.queue_depth = &registry->gauge(
      "emap_cloud_queue_depth", {}, "Requests waiting in the service queue");
  metrics_.wait = &registry->histogram(
      "emap_cloud_wait_seconds", {}, obs::Histogram::default_latency_bounds(),
      "Queueing delay before a worker picks a request up");
  metrics_.service = &registry->histogram(
      "emap_cloud_service_seconds", {},
      obs::Histogram::default_latency_bounds(),
      "Device-model search time per request");
  metrics_.response = &registry->histogram(
      "emap_cloud_response_seconds", {},
      obs::Histogram::default_latency_bounds(),
      "Arrival-to-completion time per request");
  metrics_.utilization = &registry->gauge(
      "emap_cloud_utilization", {},
      "Busy worker-time over workers * makespan of the last batch");
}

void CloudService::enable_admission(robust::AdmissionOptions options) {
  admission_ = std::make_unique<robust::AdmissionController>(
      options, virtual_workers_, registry_);
}

robust::AdmissionDecision CloudService::submit(ServiceRequest request) {
  if (admission_ != nullptr) {
    const double remaining =
        request.deadline_sec - request.arrival_sec;
    const robust::AdmissionDecision decision =
        admission_->try_admit(remaining);
    if (!decision.accepted) {
      ++shed_accum_;
      if (flight_ != nullptr) {
        flight_->log(obs::FlightEventType::kShed, "admission_shed",
                     request.arrival_sec, request.upload.trace.trace_id,
                     decision.retry_after_sec);
      }
      return decision;
    }
    queue_.push_back(std::move(request));
    if (metrics_.queue_depth != nullptr) {
      metrics_.queue_depth->set(static_cast<double>(queue_.size()));
    }
    return decision;
  }
  queue_.push_back(std::move(request));
  if (metrics_.queue_depth != nullptr) {
    metrics_.queue_depth->set(static_cast<double>(queue_.size()));
  }
  return robust::AdmissionDecision{};
}

std::vector<ServiceResponse> CloudService::process_all() {
  // FIFO by arrival; stable sort keeps submission order on simultaneous
  // arrivals.
  std::stable_sort(queue_.begin(), queue_.end(),
                   [](const ServiceRequest& a, const ServiceRequest& b) {
                     return a.arrival_sec < b.arrival_sec;
                   });

  std::vector<double> worker_free(virtual_workers_, 0.0);
  std::vector<double> worker_busy(virtual_workers_, 0.0);
  std::vector<ServiceResponse> responses;
  responses.reserve(queue_.size());

  double busy_time = 0.0;
  double first_arrival = queue_.empty() ? 0.0 : queue_.front().arrival_sec;
  double last_completion = first_arrival;
  double total_wait = 0.0;
  double total_service = 0.0;
  double total_response = 0.0;
  double max_response = 0.0;

  std::size_t lost_requests = 0;
  for (auto& request : queue_) {
    if (injector_ != nullptr &&
        injector_->apply(net::Direction::kUpload, {}).lost()) {
      // The uplink ate this request; no worker ever sees it, the patient's
      // edge times out and retries on its own schedule.
      ++lost_requests;
      if (admission_ != nullptr) {
        // Drain the admitted slot without perturbing the EWMA: feeding the
        // current estimate back leaves it fixed.
        admission_->on_start();
        admission_->on_complete(admission_->expected_service_sec());
      }
      continue;
    }
    if (admission_ != nullptr) {
      admission_->on_start();
    }
    // Earliest-free worker serves next (FIFO dispatch).
    auto worker = std::min_element(worker_free.begin(), worker_free.end());
    ServiceResponse response;
    response.patient = request.patient;
    response.sequence = request.upload.sequence;
    response.arrival_sec = request.arrival_sec;
    response.start_sec = std::max(*worker, request.arrival_sec);

    SearchStats stats;
    response.correlation_set = node_.respond(request.upload, &stats);
    const double service =
        device_.seconds_for_macs(static_cast<double>(stats.mac_ops)) +
        device_.per_signal_overhead_sec *
            static_cast<double>(stats.sets_scanned);
    response.completion_sec = response.start_sec + service;
    if (request.upload.trace.valid()) {
      // Continue the edge's causal chain on the cloud side: queue_wait and
      // cloud_scan attach under the decoded upload's trace id, and the
      // response carries the context back for the downlink leg.
      std::uint64_t scan_parent = request.upload.trace.parent_span;
      if (tracer_ != nullptr) {
        const std::uint64_t wait_span = tracer_->record_sim(
            "queue_wait", "cloud", response.arrival_sec, response.start_sec,
            request.upload.trace.parent_span, request.upload.trace.trace_id);
        scan_parent = wait_span;
        tracer_->record_sim("cloud_scan", "cloud", response.start_sec,
                            response.completion_sec, wait_span,
                            request.upload.trace.trace_id);
      }
      response.correlation_set.trace.trace_id =
          request.upload.trace.trace_id;
      response.correlation_set.trace.parent_span = scan_parent;
    }
    if (admission_ != nullptr) {
      admission_->on_complete(service);
    }
    *worker = response.completion_sec;
    worker_busy[static_cast<std::size_t>(worker - worker_free.begin())] +=
        service;

    busy_time += service;
    total_wait += response.wait_sec();
    total_service += service;
    total_response += response.response_sec();
    max_response = std::max(max_response, response.response_sec());
    last_completion = std::max(last_completion, response.completion_sec);
    if (metrics_.wait != nullptr) {
      metrics_.wait->observe(response.wait_sec());
      metrics_.service->observe(service);
      metrics_.response->observe(response.response_sec());
    }
    if (scraper_ != nullptr) {
      // Sample along the batch's virtual timeline (the scraper rate-limits
      // to its own interval; most completions are a no-op).
      scraper_->maybe_scrape(response.completion_sec);
    }
    responses.push_back(std::move(response));
  }

  stats_ = CloudServiceStats{};
  stats_.requests = responses.size();
  stats_.lost_requests = lost_requests;
  stats_.shed_requests = shed_accum_;
  shed_accum_ = 0;
  if (!responses.empty()) {
    const auto count = static_cast<double>(responses.size());
    stats_.mean_wait_sec = total_wait / count;
    stats_.mean_service_sec = total_service / count;
    stats_.mean_response_sec = total_response / count;
    stats_.max_response_sec = max_response;
    stats_.makespan_sec = last_completion - first_arrival;
    // A zero makespan (single instantaneous request, or an empty store
    // whose searches cost nothing) must not divide: utilization stays 0.
    if (stats_.makespan_sec > 0.0) {
      stats_.utilization = busy_time / (static_cast<double>(virtual_workers_) *
                                        stats_.makespan_sec);
    }
  }
  if (registry_ != nullptr) {
    metrics_.queue_depth->set(0.0);
    metrics_.utilization->set(stats_.utilization);
    for (std::size_t i = 0; i < virtual_workers_; ++i) {
      registry_
          ->gauge("emap_cloud_worker_utilization",
                  {{"worker", std::to_string(i)}},
                  "Per-worker busy fraction of the last batch's makespan")
          .set(stats_.makespan_sec > 0.0 ? worker_busy[i] / stats_.makespan_sec
                                         : 0.0);
    }
  }
  queue_.clear();
  std::sort(responses.begin(), responses.end(),
            [](const ServiceResponse& a, const ServiceResponse& b) {
              if (a.completion_sec != b.completion_sec) {
                return a.completion_sec < b.completion_sec;
              }
              return a.patient < b.patient;
            });
  return responses;
}

}  // namespace emap::core
