// Export of pipeline run results for offline analysis.
//
// The paper's figures are time series over the run (P_A trajectories,
// alarm times).  These writers dump a RunResult in the two formats an
// analysis notebook actually wants: per-iteration CSV and a compact JSON
// summary.
#pragma once

#include <filesystem>
#include <string>

#include "emap/core/pipeline.hpp"
#include "emap/obs/export.hpp"

namespace emap::core {

/// Writes one CSV row per iteration:
///   window,t_sec,tracked,set_loaded,pa_on_load,anomaly_probability,
///   tracked_before,tracked_after,removed_dissimilar,removed_exhausted,
///   cloud_call_issued,degraded,track_device_sec
/// Throws IoError on filesystem failure.
void write_iterations_csv(const RunResult& result,
                          const std::filesystem::path& path);

/// The run's headline numbers as one flat JSON object line: window and
/// cloud-call counts, the Eq. 4 timings, the alarm, final P_A, the
/// per-SLO verdicts and the robust/recovery outcome.  Fields already in
/// `json` come first (emapctl's --summary-out puts the run name and build
/// provenance there).
std::string run_summary_json(const RunResult& result,
                             obs::JsonWriter json = {});

}  // namespace emap::core
