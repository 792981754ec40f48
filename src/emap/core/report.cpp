#include "emap/core/report.hpp"

#include <cstdint>

#include "emap/obs/trace_context.hpp"

namespace emap::core {

std::string iteration_json(const IterationRecord& r) {
  obs::JsonWriter json;
  json.field("window", static_cast<std::uint64_t>(r.window_index))
      .field("t_sec", r.t_sec)
      .field("trace_id",
             obs::trace_id_hex(obs::mint_trace_id(
                 obs::kDefaultTraceSeed, r.window_index)))
      .field("tracked", r.tracked)
      .field("set_loaded", r.set_loaded)
      .field("loaded_sequence", static_cast<double>(r.loaded_sequence))
      .field("pa_on_load", r.pa_on_load)
      .field("anomaly_probability", r.anomaly_probability)
      .field("anomaly_predicted", r.anomaly_predicted)
      .field("tracked_before", static_cast<std::uint64_t>(r.tracked_before))
      .field("tracked_after", static_cast<std::uint64_t>(r.tracked_after))
      .field("removed_dissimilar",
             static_cast<std::uint64_t>(r.removed_dissimilar))
      .field("removed_exhausted",
             static_cast<std::uint64_t>(r.removed_exhausted))
      .field("abs_ops", r.abs_ops)
      .field("track_device_sec", r.track_device_sec)
      .field("cloud_call_issued", r.cloud_call_issued)
      .field("no_call_reason", no_call_reason_name(r.no_call_reason))
      .field("degraded", r.degraded)
      .field("robust_state", robust::degrade_state_name(r.robust_state))
      .field("shed_cap", static_cast<std::uint64_t>(r.shed_cap))
      .field("quality", robust::quality_verdict_name(r.quality))
      .field("breaker_rejected", r.breaker_rejected)
      .field("breaker_state", robust::breaker_state_name(r.breaker_state))
      .field("robust_critical", r.robust_critical)
      .field("robust_recovered", r.recovered);
  for (const obs::AlertTransition& alert : r.alerts) {
    const std::string key = "alert_" + alert.rule;
    json.field(key, alert.firing ? "firing" : "resolved")
        .field(key + "_value", alert.value)
        .field(key + "_threshold", alert.threshold);
  }
  return json.str();
}

std::string iterations_jsonl(const RunResult& result) {
  std::string out;
  for (const IterationRecord& r : result.iterations) {
    out += iteration_json(r);
    out += '\n';
  }
  return out;
}

std::string run_summary_json(const RunResult& result,
                             obs::JsonWriter json) {
  json.field("windows", static_cast<std::uint64_t>(result.iterations.size()))
      .field("cloud_calls", static_cast<std::uint64_t>(result.cloud_calls))
      .field("delta_ec_sec", result.timings.delta_ec_sec)
      .field("delta_cs_sec", result.timings.delta_cs_sec)
      .field("delta_ce_sec", result.timings.delta_ce_sec)
      .field("delta_initial_sec", result.timings.delta_initial_sec)
      .field("mean_track_sec", result.timings.mean_track_sec)
      .field("max_track_sec", result.timings.max_track_sec)
      .field("anomaly_predicted", result.anomaly_predicted)
      .field("first_alarm_sec", result.first_alarm_sec)
      .field("failed_cloud_calls",
             static_cast<std::uint64_t>(result.failed_cloud_calls))
      .field("retry_attempts",
             static_cast<std::uint64_t>(result.retry_attempts))
      .field("duplicates_discarded",
             static_cast<std::uint64_t>(result.duplicates_discarded))
      .field("degraded", result.degraded);
  // Final P_A plus the recovery outcome: the CI crash-recovery matrix
  // diffs these fields between a crashed-then-resumed run and an
  // uninterrupted one.
  const auto pa = result.pa_history();
  json.field("final_pa", pa.empty() ? 0.0 : pa.back());
  for (const auto& slo : result.slo) {
    json.field("slo_" + slo.name + "_deadline_misses", slo.deadline_misses)
        .field("slo_" + slo.name + "_near_misses", slo.near_misses)
        .field("slo_" + slo.name + "_burn_rate", slo.burn_rate);
  }
  const robust::RobustSummary& rb = result.robust;
  json.field("robust_final_state",
             robust::degrade_state_name(rb.degrade.final_state))
      .field("robust_transitions",
             static_cast<std::uint64_t>(rb.degrade.transitions))
      .field("robust_max_shed_level",
             static_cast<std::uint64_t>(rb.degrade.max_shed_level))
      .field("robust_entered_degraded", rb.degrade.entered_degraded)
      .field("robust_critical_windows",
             static_cast<std::uint64_t>(rb.critical_windows))
      .field("robust_breaker_opens",
             static_cast<std::uint64_t>(rb.breaker.opens))
      .field("robust_breaker_rejected",
             static_cast<std::uint64_t>(rb.breaker.rejected))
      .field("robust_quality_bad_windows",
             static_cast<std::uint64_t>(rb.quality.bad()))
      .field("robust_watchdog_trips",
             static_cast<std::uint64_t>(rb.watchdog_trips))
      .field("robust_shed_loads", static_cast<std::uint64_t>(rb.shed_loads))
      .field("robust_recovered", rb.recovery.resumed)
      .field("recovery_resume_window", rb.recovery.resume_window)
      .field("recovery_checkpoints_written", rb.recovery.checkpoints_written)
      .field("recovery_checkpoint_compactions",
             rb.recovery.checkpoint_compactions)
      .field("recovery_checkpoint_bytes_written",
             rb.recovery.checkpoint_bytes_written)
      .field("recovery_cold_start_fallback",
             rb.recovery.cold_start_fallback);
  return json.str();
}

}  // namespace emap::core
