#include "emap/core/report.hpp"

#include <cstdint>

#include "emap/common/build_info.hpp"
#include "emap/obs/trace_context.hpp"
#include "emap/robust/robust.hpp"

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
  json.field("git_sha", build_info::kGitSha)
      .field("build_type", build_info::kBuildType)
      .field("compiler", build_info::kCompiler)
      .field("windows", static_cast<std::uint64_t>(result.iterations.size()))
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
  // The CI crash-recovery matrix diffs final P_A, the alarm and the call
  // count between a crashed-then-resumed run and an uninterrupted one.
  const auto pa = result.pa_history();
  json.field("final_pa", pa.empty() ? 0.0 : pa.back());
  for (const obs::SloSummary& slo : result.slo) {
    const std::string prefix = "slo_" + slo.name + "_";
    json.field(prefix + "budget_sec", slo.budget_sec)
        .field(prefix + "target", slo.target)
        .field(prefix + "observations", slo.observations)
        .field(prefix + "deadline_misses", slo.deadline_misses)
        .field(prefix + "near_misses", slo.near_misses)
        .field(prefix + "miss_rate", slo.miss_rate)
        .field(prefix + "burn_rate", slo.burn_rate)
        .field(prefix + "max_latency_sec", slo.max_latency_sec)
        .field(prefix + "p50_latency_sec", slo.p50_latency_sec)
        .field(prefix + "p99_latency_sec", slo.p99_latency_sec);
  }
  robust::robust_summary_json(json, result.robust);
  json.field("recovery_checkpoint_compactions",
             result.robust.recovery.checkpoint_compactions)
      .field("recovery_checkpoint_bytes_written",
             result.robust.recovery.checkpoint_bytes_written);
  return json.str();
}

}  // namespace emap::core
