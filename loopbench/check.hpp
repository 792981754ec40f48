// Per-session output checks of the loop benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "emap/core/pipeline.hpp"

namespace loopbench {

/// CRC-32 over what a monitored session decided: every window's P_A bits
/// and its set_loaded / cloud_call_issued flags, first_alarm_sec,
/// cloud_calls, failed_cloud_calls and retry_attempts.
std::uint32_t session_digest(const emap::core::RunResult& result);

/// Failure reason of a batch session, or nullopt when it passes: the
/// window count must equal `expected_windows` and the digest must equal
/// the untimed warm-up pass's `reference_digest`.
std::optional<std::string> check_batch_session(
    const emap::core::RunResult& result, std::size_t expected_windows,
    std::uint32_t reference_digest);

/// The decision a session reached, as the stream-agreement check sees it.
struct Decision {
  bool anomaly_predicted = false;
  double first_alarm_sec = -1.0;
  std::size_t cloud_calls = 0;
};

Decision decision_of(const emap::core::RunResult& result);

/// Failure reason when a streamed session's decision differs from the
/// batch loop's on the same session (anomaly_predicted, first_alarm_sec
/// and cloud_calls must all be equal), or nullopt when they agree.
std::optional<std::string> check_stream_agreement(const Decision& stream,
                                                  const Decision& batch);

}  // namespace loopbench
