#include "emap/core/cloud_call.hpp"

#include <optional>
#include <string>

#include "emap/common/error.hpp"
#include "emap/obs/profiler.hpp"

namespace emap::core {

CloudCallMetrics CloudCallMetrics::resolve(obs::MetricsRegistry* registry) {
  CloudCallMetrics m;
  if (registry == nullptr) {
    return m;
  }
  m.cloud_calls = &registry->counter("emap_pipeline_cloud_calls_total", {},
                                     "Cloud searches issued");
  m.retries = &registry->counter(
      "emap_edge_retries_total", {},
      "Cloud-call attempts beyond the first (RetryPolicy re-sends)");
  m.retry_timeouts = &registry->counter(
      "emap_edge_retry_timeouts_total", {},
      "Cloud-call attempts that timed out (message lost, or corrupted "
      "where only the receiver could tell)");
  m.rejects_timeout = &registry->counter(
      "emap_edge_rejects_total", {{"reason", "timeout"}},
      "Cloud-call attempts rejected, by typed reason");
  m.rejects_corrupt = &registry->counter(
      "emap_edge_rejects_total", {{"reason", "corrupt"}},
      "Cloud-call attempts rejected, by typed reason");
  m.call_failures = &registry->counter(
      "emap_edge_cloud_call_failures_total", {},
      "Cloud calls that exhausted every retry and degraded");
  m.duplicates_discarded = &registry->counter(
      "emap_edge_duplicates_discarded_total", {},
      "Duplicate correlation-set downloads dropped by sequence dedup");
  m.retry_backoff = &registry->histogram(
      "emap_edge_retry_backoff_seconds", {},
      obs::Histogram::default_latency_bounds(),
      "Backoff waited before each cloud-call retry");
  m.delta_ec = &registry->histogram(
      "emap_delta_ec_seconds", {}, obs::Histogram::default_latency_bounds(),
      "Edge-to-cloud upload time per cloud call (Eq. 4)");
  m.delta_cs = &registry->histogram(
      "emap_delta_cs_seconds", {}, obs::Histogram::default_latency_bounds(),
      "Cloud search time per cloud call (Eq. 4)");
  m.delta_ce = &registry->histogram(
      "emap_delta_ce_seconds", {}, obs::Histogram::default_latency_bounds(),
      "Cloud-to-edge download time per cloud call (Eq. 4)");
  m.delta_initial = &registry->histogram(
      "emap_delta_initial_seconds", {},
      obs::Histogram::default_latency_bounds(),
      "Full round-trip overhead per cloud call (Eq. 4 sum)");
  m.encode = &registry->histogram(
      "emap_codec_encode_seconds", {},
      obs::Histogram::default_latency_bounds(),
      "Wire-message encode wall time");
  m.decode = &registry->histogram(
      "emap_codec_decode_seconds", {},
      obs::Histogram::default_latency_bounds(),
      "Wire-message decode wall time");
  return m;
}

PendingSearch CloudCallExecutor::issue(
    std::uint32_t sequence, const std::vector<double>& filtered_window,
    double now_sec, net::Channel& channel, const net::RetryPolicy& retry,
    obs::Tracer& tracer, robust::CircuitBreaker& breaker,
    obs::TraceContext trace) const {
  EMAP_PROFILE_SCOPE("cloud_call");
  net::SignalUploadMessage upload;
  upload.sequence = sequence;
  upload.samples = filtered_window;
  // The upload carries the issuing window's causal chain across the wire
  // in its trace header (zeros for an invalid context).
  upload.trace = trace;
  const std::size_t upload_bytes_size = net::wire_size(upload);

  PendingSearch pending;
  pending.sequence = sequence;
  pending.trace = trace;

  // Timeout derives from the channel's expected transfer times: the upload
  // plus a full top-k response (the edge knows the set size it asked for).
  // The response size is extrapolated from a one-entry message so the
  // per-message latency/framing terms are counted once, not top_k times.
  net::CorrelationSetMessage response_shape;
  response_shape.entries.emplace_back().samples.resize(
      cloud_->store().info().slice_length);
  const std::size_t empty_response_bytes =
      net::wire_size(net::CorrelationSetMessage{});
  const std::size_t per_entry_bytes =
      net::wire_size(response_shape) - empty_response_bytes;
  const std::size_t response_bytes =
      empty_response_bytes + config_->top_k * per_entry_bytes;
  const double expected_transfer =
      channel.expected_seconds(net::Direction::kUpload, upload_bytes_size) +
      channel.expected_seconds(net::Direction::kDownload, response_bytes);
  const double timeout = retry.timeout_for(expected_transfer);

  // Children of the per-call parent span, recorded after the loop once the
  // parent's full (retries included) extent is known.  Each leg carries its
  // own trace id: the delta_CS leg takes it from the *decoded* upload, so a
  // shared id in the span log proves the context crossed the wire.
  struct Leg {
    std::string name;
    std::string category;
    double start_sec;
    double end_sec;
    std::uint64_t trace_id;
  };
  std::vector<Leg> legs;

  double elapsed = 0.0;
  // Typed failure accounting: the *reason* decides what the attempt costs
  // (a timeout charges the full timeout; a CRC-detected corrupt download
  // fails fast, charging only the transfer time actually spent) and what
  // backoff the next attempt waits (see RetryPolicy::backoff_for).
  net::RejectReason last_reason = net::RejectReason::kNone;
  auto fail_attempt = [&](std::size_t attempt, net::RejectReason reason,
                          double charged_sec) {
    legs.push_back({"attempt_" + std::to_string(attempt) + "_" +
                        net::reject_reason_name(reason),
                    "retry", now_sec + elapsed,
                    now_sec + elapsed + charged_sec, trace.trace_id});
    elapsed += charged_sec;
    last_reason = reason;
    if (reason == net::RejectReason::kTimeout) {
      if (metrics_.retry_timeouts != nullptr) {
        metrics_.retry_timeouts->increment();
      }
      if (metrics_.rejects_timeout != nullptr) {
        metrics_.rejects_timeout->increment();
      }
    } else if (reason == net::RejectReason::kCorrupt &&
               metrics_.rejects_corrupt != nullptr) {
      metrics_.rejects_corrupt->increment();
    }
    breaker.record_failure(now_sec + elapsed);
  };

  for (std::size_t attempt = 0;; ++attempt) {
    // The breaker's remaining OPEN cooldown doubles as a RetryAfter hint:
    // a retry against a link the edge itself has declared down waits out
    // the cooldown instead of hammering it.
    const double retry_after_hint =
        breaker.retry_after_hint(now_sec + elapsed);
    const double backoff =
        retry.backoff_for(attempt, last_reason, retry_after_hint);
    if (!retry.allow_attempt_after(attempt, elapsed, backoff, timeout)) {
      break;
    }
    if (attempt > 0) {
      if (backoff > 0.0) {
        legs.push_back({"backoff_" + std::to_string(attempt), "retry",
                        now_sec + elapsed, now_sec + elapsed + backoff,
                        trace.trace_id});
      }
      elapsed += backoff;
      if (metrics_.retries != nullptr) {
        metrics_.retries->increment();
        metrics_.retry_backoff->observe(backoff);
      }
    }
    ++pending.attempts;

    // ---- Upload leg (edge -> cloud). ----
    double up_sec = 0.0;
    bool leg_ok = true;
    std::optional<net::SignalUploadMessage> at_cloud;
    if (use_transport_) {
      // Full wire path: the cloud sees the 16-bit quantized window and the
      // edge receives 16-bit quantized signal-sets.
      std::vector<std::uint8_t> upload_bytes;
      if (metrics_.encode != nullptr) {
        obs::ScopedTimer timer(*metrics_.encode);
        upload_bytes = net::encode_upload(upload);
      } else {
        upload_bytes = net::encode_upload(upload);
      }
      const net::TransferOutcome out =
          channel.transfer(net::Direction::kUpload, upload_bytes);
      up_sec = out.seconds;
      if (!out.delivered()) {
        leg_ok = false;
      } else {
        try {
          at_cloud = net::decode_upload(upload_bytes);
        } catch (const CorruptData&) {
          // The cloud cannot answer a request it cannot read; the edge
          // sees silence and times out.
          leg_ok = false;
        }
      }
    } else {
      up_sec = channel.upload_seconds(upload_bytes_size);
      if (net::FaultInjector* injector = channel.fault_injector()) {
        const net::FaultPlan plan =
            injector->apply(net::Direction::kUpload, {});
        up_sec += plan.extra_delay_sec;
        leg_ok = !plan.dropped;
      }
      at_cloud = upload;
    }
    if (!leg_ok) {
      // Either way the edge observed nothing but silence: an upload lost
      // in flight and one corrupted past recognition are indistinguishable
      // from this side of the link.
      fail_attempt(attempt, net::RejectReason::kTimeout, timeout);
      continue;
    }

    // ---- Cloud search. ----
    SearchStats stats;
    net::CorrelationSetMessage response = cloud_->respond(*at_cloud, &stats);
    // Echo the *received* context back: the downlink message then carries
    // the chain for the edge's delta_CE leg.
    response.trace = at_cloud->trace;
    const double cs_sec =
        cloud_device_->seconds_for_macs(static_cast<double>(stats.mac_ops)) +
        cloud_device_->per_signal_overhead_sec *
            static_cast<double>(stats.sets_scanned);

    // ---- Download leg (cloud -> edge). ----
    double down_sec = 0.0;
    bool duplicated = false;
    // A dropped response is silence (timeout); a response that *arrives*
    // but fails CRC/sequence validation is detected the moment it is
    // decoded — the edge fails fast, charging only the time the round
    // trip actually took, and retries on the flat corrupt backoff.
    net::RejectReason down_reason = net::RejectReason::kTimeout;
    if (use_transport_) {
      auto download_bytes = net::encode_correlation_set(response);
      const net::TransferOutcome out =
          channel.transfer(net::Direction::kDownload, download_bytes);
      down_sec = out.seconds;
      duplicated = out.fault.duplicated;
      if (!out.delivered()) {
        leg_ok = false;
      } else {
        try {
          if (metrics_.decode != nullptr) {
            obs::ScopedTimer timer(*metrics_.decode);
            response = net::decode_correlation_set(download_bytes);
          } else {
            response = net::decode_correlation_set(download_bytes);
          }
          // Monotone sequence handling: a response must answer the request
          // the edge has outstanding; anything else is discarded.
          if (response.request_sequence != sequence) {
            leg_ok = false;
            down_reason = net::RejectReason::kCorrupt;
          }
        } catch (const CorruptData&) {
          leg_ok = false;
          down_reason = net::RejectReason::kCorrupt;
        }
      }
    } else {
      down_sec = channel.download_seconds(net::wire_size(response));
      if (net::FaultInjector* injector = channel.fault_injector()) {
        const net::FaultPlan plan =
            injector->apply(net::Direction::kDownload, {});
        down_sec += plan.extra_delay_sec;
        duplicated = plan.duplicated;
        leg_ok = !plan.dropped;
      }
    }
    if (!leg_ok) {
      fail_attempt(attempt, down_reason,
                   down_reason == net::RejectReason::kCorrupt
                       ? up_sec + cs_sec + down_sec
                       : timeout);
      continue;
    }
    if (duplicated) {
      // The link delivered the response twice; the edge's sequence dedup
      // keeps the first copy and drops the echo.
      ++pending.duplicates;
      if (metrics_.duplicates_discarded != nullptr) {
        metrics_.duplicates_discarded->increment();
      }
    }
    pending.succeeded = true;
    pending.delta_ec = up_sec;
    pending.delta_cs = cs_sec;
    pending.delta_ce = down_sec;

    const double t0 = now_sec + elapsed;
    // delta_CS carries the trace id the *cloud* decoded from the upload and
    // delta_CE the one the *edge* decoded from the response — both equal
    // trace.trace_id only because the context survived the wire.
    legs.push_back({"delta_EC", "upload", t0, t0 + up_sec, trace.trace_id});
    legs.push_back({"delta_CS", "cloud-search", t0 + up_sec,
                    t0 + up_sec + cs_sec, at_cloud->trace.trace_id});
    legs.push_back({"delta_CE", "download", t0 + up_sec + cs_sec,
                    t0 + up_sec + cs_sec + down_sec,
                    response.trace.trace_id});
    elapsed += up_sec + cs_sec + down_sec;

    pending.correlation_set.reserve(response.entries.size());
    for (const auto& entry : response.entries) {
      TrackedSignal signal;
      signal.set_id = entry.set_id;
      signal.omega = static_cast<double>(entry.omega);
      signal.beta = entry.beta;
      signal.anomalous = entry.anomalous != 0;
      signal.class_tag = entry.class_tag;
      signal.samples = entry.samples;
      pending.correlation_set.push_back(std::move(signal));
    }
    breaker.record_success(now_sec + elapsed);
    break;
  }
  pending.ready_at_sec = now_sec + elapsed;

  if (pending.succeeded && metrics_.cloud_calls != nullptr) {
    metrics_.cloud_calls->increment();
    metrics_.delta_ec->observe(pending.delta_ec);
    metrics_.delta_cs->observe(pending.delta_cs);
    metrics_.delta_ce->observe(pending.delta_ce);
    metrics_.delta_initial->observe(pending.delta_ec + pending.delta_cs +
                                    pending.delta_ce);
  }
  if (!pending.succeeded && metrics_.call_failures != nullptr) {
    metrics_.call_failures->increment();
  }

  // One parent span per round trip, spanning retries and all; the Eq. 4
  // legs and any timeout/backoff intervals nest under it, and the whole
  // subtree attaches to the issuing window via trace.parent_span.
  const std::uint64_t call = tracer.record_sim(
      "cloud_call_" + std::to_string(sequence), "cloud-call", now_sec,
      pending.ready_at_sec, trace.parent_span, trace.trace_id);
  for (const Leg& leg : legs) {
    tracer.record_sim(leg.name, leg.category, leg.start_sec, leg.end_sec,
                      call, leg.trace_id);
  }
  return pending;
}

}  // namespace emap::core
