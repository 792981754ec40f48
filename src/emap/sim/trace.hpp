// Timeline trace of pipeline activity (reproduces paper Fig. 9).
#pragma once

#include <string>
#include <vector>

namespace emap::sim {

/// Simulated time in seconds.
using SimTime = double;

/// Activity categories of the EMAP timing diagram.
enum class ActivityKind {
  kSample,        ///< edge: sampling one 1 s window
  kFilter,        ///< edge: bandpass filtering
  kUpload,        ///< edge -> cloud transmission (Δ_EC)
  kCloudSearch,   ///< cloud: MDB cross-correlation search (Δ_CS)
  kDownload,      ///< cloud -> edge correlation set transfer (Δ_CE)
  kEdgeTrack,     ///< edge: Algorithm 2 iteration
  kPrediction,    ///< edge: anomaly probability output
};

/// Display name of an activity kind.
const char* activity_name(ActivityKind kind);

/// One traced interval.
struct Activity {
  ActivityKind kind;
  SimTime start;
  SimTime end;
  std::string label;
};

/// Ordered activity log with an ASCII renderer for the Fig. 9 bench.
class TimelineTrace {
 public:
  void record(ActivityKind kind, SimTime start, SimTime end,
              std::string label = {});

  const std::vector<Activity>& activities() const { return activities_; }

  /// Total busy time of one activity kind.
  double total_seconds(ActivityKind kind) const;

  /// First activity of a kind, or nullptr.
  const Activity* first(ActivityKind kind) const;

  /// Renders an ASCII Gantt chart (one row per activity kind) covering
  /// [0, horizon] seconds with `columns` time buckets.
  std::string render_ascii(double horizon_sec, std::size_t columns = 100) const;

 private:
  std::vector<Activity> activities_;
};

}  // namespace emap::sim
