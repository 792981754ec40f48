#include "check.hpp"

#include <cstring>
#include <vector>

#include "emap/common/crc32.hpp"

namespace loopbench {

namespace {

template <typename T>
void append(std::vector<unsigned char>& bytes, const T& value) {
  unsigned char raw[sizeof(T)];
  std::memcpy(raw, &value, sizeof(T));
  bytes.insert(bytes.end(), raw, raw + sizeof(T));
}

}  // namespace

std::uint32_t session_digest(const emap::core::RunResult& result) {
  std::vector<unsigned char> bytes;
  bytes.reserve(result.iterations.size() * (sizeof(double) + 2) + 64);
  for (const auto& record : result.iterations) {
    append(bytes, record.anomaly_probability);
    append(bytes, static_cast<unsigned char>(record.set_loaded));
    append(bytes, static_cast<unsigned char>(record.cloud_call_issued));
  }
  append(bytes, result.first_alarm_sec);
  append(bytes, static_cast<std::uint64_t>(result.cloud_calls));
  append(bytes, static_cast<std::uint64_t>(result.failed_cloud_calls));
  append(bytes, static_cast<std::uint64_t>(result.retry_attempts));
  return emap::crc32(bytes.data(), bytes.size());
}

std::optional<std::string> check_batch_session(
    const emap::core::RunResult& result, std::size_t expected_windows,
    std::uint32_t reference_digest) {
  if (result.iterations.size() != expected_windows) {
    return "window count " + std::to_string(result.iterations.size()) +
           " != " + std::to_string(expected_windows);
  }
  const std::uint32_t digest = session_digest(result);
  if (digest != reference_digest) {
    return "digest " + std::to_string(digest) +
           " != warm-up digest " + std::to_string(reference_digest);
  }
  return std::nullopt;
}

Decision decision_of(const emap::core::RunResult& result) {
  return {result.anomaly_predicted, result.first_alarm_sec,
          result.cloud_calls};
}

std::optional<std::string> check_stream_agreement(const Decision& stream,
                                                  const Decision& batch) {
  std::string reason;
  auto note = [&](const std::string& part) {
    reason += reason.empty() ? part : "; " + part;
  };
  if (stream.anomaly_predicted != batch.anomaly_predicted) {
    note(std::string("anomaly_predicted ") +
         (stream.anomaly_predicted ? "true" : "false") + " vs batch " +
         (batch.anomaly_predicted ? "true" : "false"));
  }
  if (stream.first_alarm_sec != batch.first_alarm_sec) {
    note("first_alarm_sec " + std::to_string(stream.first_alarm_sec) +
         " vs batch " + std::to_string(batch.first_alarm_sec));
  }
  if (stream.cloud_calls != batch.cloud_calls) {
    note("cloud_calls " + std::to_string(stream.cloud_calls) +
         " vs batch " + std::to_string(batch.cloud_calls));
  }
  if (reason.empty()) {
    return std::nullopt;
  }
  return reason;
}

}  // namespace loopbench
