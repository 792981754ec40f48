#include "emap/obs/flight.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "emap/obs/export.hpp"
#include "emap/obs/trace_context.hpp"

namespace emap::obs {

const char* flight_event_type_name(FlightEventType type) {
  switch (type) {
    case FlightEventType::kSpan:
      return "span";
    case FlightEventType::kSloMiss:
      return "slo_miss";
    case FlightEventType::kSloBurnPage:
      return "slo_burn_page";
    case FlightEventType::kRobustTransition:
      return "robust_transition";
    case FlightEventType::kBreakerOpen:
      return "breaker_open";
    case FlightEventType::kBreakerClose:
      return "breaker_close";
    case FlightEventType::kFaultVerdict:
      return "fault_verdict";
    case FlightEventType::kRetry:
      return "retry";
    case FlightEventType::kShed:
      return "shed";
    case FlightEventType::kCheckpoint:
      return "checkpoint";
    case FlightEventType::kResume:
      return "resume";
    case FlightEventType::kCrashPoint:
      return "crash_point";
    case FlightEventType::kAlert:
      return "alert";
    case FlightEventType::kStageStall:
      return "stage_stall";
  }
  return "?";
}

std::string FlightEvent::label_view() const {
  return std::string(label,
                     strnlen(label, kLabelCapacity));
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 8)) {}

void FlightRecorder::log(FlightEventType type, const char* label,
                         double t_sec, std::uint64_t trace_id, double a,
                         double b) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t seq = head_++;
  FlightEvent& event = ring_[seq % ring_.size()];
  event.seq = seq;
  event.trace_id = trace_id;
  event.t_sec = t_sec;
  event.a = a;
  event.b = b;
  event.type = type;
  std::memset(event.label, 0, FlightEvent::kLabelCapacity);
  if (label != nullptr) {
    std::strncpy(event.label, label, FlightEvent::kLabelCapacity - 1);
  }
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t first =
      head_ > ring_.size() ? head_ - ring_.size() : 0;
  std::vector<FlightEvent> events;
  events.reserve(static_cast<std::size_t>(head_ - first));
  for (std::uint64_t seq = first; seq < head_; ++seq) {
    events.push_back(ring_[seq % ring_.size()]);
  }
  return events;
}

std::uint64_t FlightRecorder::total_logged() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return head_;
}

void FlightRecorder::set_dump_path(std::filesystem::path path) {
  dump_path_ = std::move(path);
}

bool FlightRecorder::trigger_dump(const char* reason) noexcept {
  try {
    if (dump_path_.empty()) {
      return false;
    }
    const auto events = snapshot();
    if (dump_path_.has_parent_path()) {
      std::error_code ec;
      std::filesystem::create_directories(dump_path_.parent_path(), ec);
    }
    std::FILE* file = std::fopen(dump_path_.string().c_str(), "w");
    if (file == nullptr) {
      return false;
    }
    JsonWriter header;
    header.field("flight_dump", reason != nullptr ? reason : "");
    header.field("events", static_cast<std::uint64_t>(events.size()));
    header.field("dropped",
                 total_logged() - static_cast<std::uint64_t>(events.size()));
    bool ok = std::fprintf(file, "%s\n", header.str().c_str()) >= 0;
    for (const FlightEvent& event : events) {
      if (std::fprintf(file, "%s\n", flight_event_json(event).c_str()) < 0) {
        ok = false;
        break;
      }
    }
    if (std::fclose(file) != 0) {
      ok = false;
    }
    if (ok) {
      dumps_.fetch_add(1, std::memory_order_relaxed);
    }
    return ok;
  } catch (...) {
    return false;  // the dump runs on the crash path; never rethrow
  }
}

std::string flight_event_json(const FlightEvent& event) {
  JsonWriter writer;
  writer.field("seq", event.seq);
  writer.field("type", flight_event_type_name(event.type));
  writer.field("label", event.label_view());
  writer.field("t_sec", event.t_sec);
  writer.field("trace_id", trace_id_hex(event.trace_id));
  writer.field("a", event.a);
  writer.field("b", event.b);
  return writer.str();
}

}  // namespace emap::obs
