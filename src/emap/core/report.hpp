// Export of pipeline run results for offline analysis.
//
// The paper's figures are time series over the run (P_A trajectories,
// alarm times).  These formatters render a RunResult in the two forms an
// analysis notebook actually wants: the per-window decision record as
// JSONL (the lines a run with PipelineOptions::record_path streams, read
// back by `emapctl report`) and a compact JSON summary.
#pragma once

#include <string>

#include "emap/core/pipeline.hpp"
#include "emap/obs/export.hpp"

namespace emap::core {

/// One window's decision-record line (no newline): every IterationRecord
/// field, doubles at full precision.  Keys are the field names, except
/// `window` (window_index) and `robust_recovered` (recovered); the enums
/// are written by name (no_call_reason_name, degrade_state_name,
/// quality_verdict_name, breaker_state_name).  `trace_id` is the window's
/// trace as trace_id_hex text, the id its spans carry.  Each alert
/// transition adds `alert_<rule>` ("firing" or "resolved") with
/// `alert_<rule>_value` and `alert_<rule>_threshold`; a rule transitions
/// at most once per evaluation, so the keys never repeat.
std::string iteration_json(const IterationRecord& record);

/// iteration_json of every window, one line each.
std::string iterations_jsonl(const RunResult& result);

/// The run summary as one flat JSON object line: the build stamp
/// (`git_sha`, `build_type`, `compiler`), window and cloud-call counts,
/// the Eq. 4 timings, the alarm, final P_A, every SloSummary field as
/// `slo_<name>_<field>`, the robust section exactly as
/// robust::robust_summary_json writes it, and the checkpoint compaction
/// counters.  Fields already in `json` come first (emapctl's --summary-out
/// puts the run name and duration there).
std::string run_summary_json(const RunResult& result,
                             obs::JsonWriter json = {});

}  // namespace emap::core
