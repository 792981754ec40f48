#include "emap/robust/robust.hpp"

#include "emap/obs/export.hpp"

namespace emap::robust {

void robust_summary_json(obs::JsonWriter& writer,
                         const RobustSummary& summary) {
  writer.field("final_state",
             std::string(degrade_state_name(summary.degrade.final_state)))
      .field("transitions",
             static_cast<std::uint64_t>(summary.degrade.transitions))
      .field("windows_nominal",
             static_cast<std::uint64_t>(summary.degrade.windows_nominal))
      .field("windows_degraded",
             static_cast<std::uint64_t>(summary.degrade.windows_degraded))
      .field("windows_critical",
             static_cast<std::uint64_t>(summary.degrade.windows_critical))
      .field("windows_recovering",
             static_cast<std::uint64_t>(summary.degrade.windows_recovering))
      .field("max_shed_level",
             static_cast<std::uint64_t>(summary.degrade.max_shed_level))
      .field("entered_degraded", summary.degrade.entered_degraded)
      .field("breaker_state",
             std::string(breaker_state_name(summary.breaker.final_state)))
      .field("breaker_opens",
             static_cast<std::uint64_t>(summary.breaker.opens))
      .field("breaker_rejected",
             static_cast<std::uint64_t>(summary.breaker.rejected))
      .field("breaker_failures",
             static_cast<std::uint64_t>(summary.breaker.failures))
      .field("breaker_successes",
             static_cast<std::uint64_t>(summary.breaker.successes))
      .field("quality_assessed",
             static_cast<std::uint64_t>(summary.quality.assessed))
      .field("quality_bad", static_cast<std::uint64_t>(summary.quality.bad()))
      .field("quality_nan", static_cast<std::uint64_t>(summary.quality.nan))
      .field("quality_flatline",
             static_cast<std::uint64_t>(summary.quality.flatline))
      .field("quality_saturated",
             static_cast<std::uint64_t>(summary.quality.saturated))
      .field("quality_artifact",
             static_cast<std::uint64_t>(summary.quality.artifact))
      .field("watchdog_trips",
             static_cast<std::uint64_t>(summary.watchdog_trips))
      .field("critical_windows",
             static_cast<std::uint64_t>(summary.critical_windows))
      .field("shed_loads", static_cast<std::uint64_t>(summary.shed_loads))
      .field("deferred_flushes",
             static_cast<std::uint64_t>(summary.deferred_flushes))
      .field("recovery_enabled", summary.recovery.enabled)
      .field("recovery_resumed", summary.recovery.resumed)
      .field("recovery_resume_window",
             static_cast<std::uint64_t>(summary.recovery.resume_window))
      .field("recovery_checkpoints_written",
             static_cast<std::uint64_t>(summary.recovery.checkpoints_written))
      .field("recovery_cold_start_fallback",
             summary.recovery.cold_start_fallback)
      .field("recovery_reject_reason", summary.recovery.reject_reason)
      .field("checkpoint_last_snapshot_window",
             static_cast<std::uint64_t>(summary.recovery.last_snapshot_window))
      .field("streamed", summary.streamed)
      .field("supervisor_stalls",
             static_cast<std::uint64_t>(summary.supervisor_stalls))
      .field("supervisor_restarts",
             static_cast<std::uint64_t>(summary.supervisor_restarts))
      .field("supervisor_crashes",
             static_cast<std::uint64_t>(summary.supervisor_crashes));
  // Stage-queue columns (streaming mode): one flattened field group per
  // stage, keyed by stage name, so the JSON stays a flat one-line object.
  for (const StageQueueSummary& stage : summary.stages) {
    const std::string prefix = "stage_" + stage.stage + "_";
    writer.field(prefix + "processed", stage.processed)
        .field(prefix + "stalls", stage.stalls)
        .field(prefix + "crashes", stage.crashes)
        .field(prefix + "restarts", stage.restarts)
        .field(prefix + "failed", stage.failed);
    if (!stage.queue.empty()) {
      writer.field(prefix + "queue", stage.queue)
          .field(prefix + "queue_capacity", stage.queue_capacity)
          .field(prefix + "queue_max_depth", stage.queue_max_depth)
          .field(prefix + "queue_pushed", stage.queue_pushed);
    }
  }
}

std::string robust_summary_json(const RobustSummary& summary) {
  obs::JsonWriter writer;
  robust_summary_json(writer, summary);
  return writer.str();
}

}  // namespace emap::robust
