// The edge's cloud round trip, extracted from the pipeline loop so the
// batch pipeline and the streaming uplink stage run the *same* code: one
// retry loop with typed failure accounting, breaker feedback, Eq. 4 leg
// timing, and causal-trace propagation.
//
// Thread safety: issue() touches only thread-safe collaborators (CloudNode
// search via the stats-out overload, Tracer, metrics, CircuitBreaker) plus
// the Channel passed per call — the caller owns the channel's thread
// confinement (the streaming engine gives each uplink worker its own
// Channel + FaultInjector so the fault RNG streams stay deterministic per
// worker).
#pragma once

#include <cstdint>
#include <vector>

#include "emap/core/cloud_node.hpp"
#include "emap/core/config.hpp"
#include "emap/core/tracker.hpp"
#include "emap/net/channel.hpp"
#include "emap/net/retry.hpp"
#include "emap/obs/metrics.hpp"
#include "emap/obs/span.hpp"
#include "emap/obs/trace_context.hpp"
#include "emap/robust/breaker.hpp"
#include "emap/sim/device.hpp"

namespace emap::core {

/// One in-flight (or completed) cloud search: what the edge needs to
/// deliver the correlation set at its virtual ready time.
struct PendingSearch {
  double ready_at_sec = 0.0;
  std::vector<TrackedSignal> correlation_set;
  double delta_ec = 0.0;
  double delta_cs = 0.0;
  double delta_ce = 0.0;
  std::uint32_t sequence = 0;
  std::size_t attempts = 0;    ///< attempts actually started
  std::size_t duplicates = 0;  ///< duplicate deliveries deduped away
  bool succeeded = false;      ///< false = retries/deadline exhausted
  /// Causal chain of the issuing window (trace id + window root span).
  obs::TraceContext trace;
};

/// Telemetry handles of the round trip (all null = no recording).  Both
/// the pipeline constructor and the streaming engine resolve the same
/// family names through resolve(), so the instruments are shared.
struct CloudCallMetrics {
  obs::Counter* cloud_calls = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* retry_timeouts = nullptr;
  obs::Counter* rejects_timeout = nullptr;
  obs::Counter* rejects_corrupt = nullptr;
  obs::Counter* call_failures = nullptr;
  obs::Counter* duplicates_discarded = nullptr;
  obs::Histogram* retry_backoff = nullptr;
  obs::Histogram* delta_ec = nullptr;
  obs::Histogram* delta_cs = nullptr;
  obs::Histogram* delta_ce = nullptr;
  obs::Histogram* delta_initial = nullptr;
  obs::Histogram* encode = nullptr;
  obs::Histogram* decode = nullptr;

  /// Registers (or re-finds) every family in `registry`; all-null when
  /// registry is null.
  static CloudCallMetrics resolve(obs::MetricsRegistry* registry);
};

/// Stateless executor of one cloud round trip (Fig. 9's ΔEC + ΔCS + ΔCE
/// with the PR 2 failure semantics).  Borrows everything; the referenced
/// cloud node, config, and device profile must outlive it.
class CloudCallExecutor {
 public:
  CloudCallExecutor(const CloudNode* cloud, const EmapConfig* config,
                    const sim::DeviceProfile* cloud_device,
                    bool use_transport, CloudCallMetrics metrics)
      : cloud_(cloud),
        config_(config),
        cloud_device_(cloud_device),
        use_transport_(use_transport),
        metrics_(metrics) {}

  /// Runs the full retry loop for one upload at virtual time `now_sec`.
  /// `channel` must not be shared with a concurrent issue() call.
  PendingSearch issue(std::uint32_t sequence,
                      const std::vector<double>& filtered_window,
                      double now_sec, net::Channel& channel,
                      const net::RetryPolicy& retry, obs::Tracer& tracer,
                      robust::CircuitBreaker& breaker,
                      obs::TraceContext trace) const;

 private:
  const CloudNode* cloud_;
  const EmapConfig* config_;
  const sim::DeviceProfile* cloud_device_;
  bool use_transport_;
  CloudCallMetrics metrics_;
};

}  // namespace emap::core
