// Export of pipeline run results for offline analysis.
//
// The paper's figures are time series over the run (P_A trajectories,
// alarm times).  These writers dump a RunResult in the two formats an
// analysis notebook actually wants: the per-window decision record as
// JSONL (`emapctl --record-out`, read back by `emapctl report`) and a
// compact JSON summary.
#pragma once

#include <filesystem>
#include <string>

#include "emap/core/pipeline.hpp"
#include "emap/obs/export.hpp"

namespace emap::core {

/// The decision record: one JSON object line per window with every
/// IterationRecord field, doubles at full precision.  Keys are the field
/// names, except `window` (window_index) and `robust_recovered`
/// (recovered); the enums are written by name (no_call_reason_name,
/// degrade_state_name, quality_verdict_name).
std::string iterations_jsonl(const RunResult& result);

/// iterations_jsonl into `path`.  Throws IoError when the file cannot be
/// opened or written.
void write_iterations_jsonl(const RunResult& result,
                            const std::filesystem::path& path);

/// The run's headline numbers as one flat JSON object line: window and
/// cloud-call counts, the Eq. 4 timings, the alarm, final P_A, the
/// per-SLO verdicts and the robust/recovery outcome.  Fields already in
/// `json` come first (emapctl's --summary-out puts the run name and build
/// provenance there).
std::string run_summary_json(const RunResult& result,
                             obs::JsonWriter json = {});

}  // namespace emap::core
