// Traced replay of a monitored session through the layers' public calls.
//
// The e2e run (EmapPipeline::run) leaves an IterationRecord per window.
// replay_session() re-executes that schedule one public call at a time —
// EdgeNode::acquire_window, the uplink codec, CloudNode::respond, the
// downlink codec, EdgeTracker::load_from_message / step,
// AnomalyPredictor::observe and, with checkpointing, robust::
// write_checkpoint — and records one span per call.  The replay must
// reproduce the e2e P_A of every window bit for bit; the first divergence
// is reported as the session's mismatch.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "emap/core/cloud_node.hpp"
#include "emap/core/config.hpp"
#include "emap/core/pipeline.hpp"
#include "emap/synth/generator.hpp"

namespace loopbench {

/// Span names: the replay's root and window spans plus one per layer call.
enum class Layer : std::uint8_t {
  kSession,
  kWindow,
  kFir,            ///< EdgeNode::acquire_window
  kTransportUp,    ///< make_upload + encode_upload + decode_upload
  kSearch,         ///< CloudNode::respond
  kTransportDown,  ///< encode_correlation_set + decode_correlation_set
  kTrackerLoad,    ///< EdgeTracker::load_from_message
  kTrackerStep,    ///< EdgeTracker::step
  kPredictor,      ///< AnomalyPredictor::observe
  kCheckpoint,     ///< SessionState assembly + robust::write_checkpoint
};
inline constexpr std::size_t kLayerCount = 10;

const char* layer_name(Layer layer);

struct Span {
  Layer layer = Layer::kSession;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the recorder's spans; -1 = root
  std::uint32_t session = 0;
  std::uint32_t window = 0;
};

/// In-memory span log; disabled recorders keep nothing and read no clock.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span and returns its index (-1 when disabled).
  std::int64_t open(Layer layer, std::int64_t parent, std::uint32_t session,
                    std::uint32_t window);
  void close(std::int64_t index);

  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per span: {name, start, end, parent, session, window}
  /// with times in microseconds since the recorder was created.
  void write_jsonl(const std::filesystem::path& path) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, Layer layer, std::int64_t parent,
             std::uint32_t session, std::uint32_t window)
      : recorder_(recorder),
        index_(recorder.open(layer, parent, session, window)) {}
  ~ScopedSpan() { recorder_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t index() const { return index_; }

 private:
  SpanRecorder& recorder_;
  std::int64_t index_;
};

/// What one session's e2e run left behind for the replay.
struct ReplayInputs {
  const emap::core::CloudNode* cloud = nullptr;
  const emap::core::EmapConfig* config = nullptr;
  const emap::synth::Recording* input = nullptr;
  const emap::core::RunResult* e2e = nullptr;
  /// Snapshot directory; empty = the workload does not checkpoint.
  std::filesystem::path checkpoint_dir;
  /// Outcome of a cloud call still in flight when the session ended
  /// (the records cannot tell; the e2e snapshot's pending call can).
  bool unresolved_call_succeeded = true;
};

/// Work counts of the replayed calls (timing comes from the spans).
struct ReplayOutcome {
  std::optional<std::string> mismatch;  ///< first divergence from the e2e
  std::vector<emap::core::SearchStats> searches;
  std::vector<std::size_t> down_bytes;
  std::vector<std::uint64_t> step_abs_ops;
  std::vector<std::size_t> snapshot_bytes;
};

ReplayOutcome replay_session(const ReplayInputs& inputs, SpanRecorder& spans,
                             std::uint32_t session);

}  // namespace loopbench
