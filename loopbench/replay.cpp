#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>
#include <stdexcept>

#include "emap/common/crc32.hpp"
#include "emap/core/edge_node.hpp"
#include "emap/net/transport.hpp"
#include "emap/robust/checkpoint.hpp"

namespace loopbench {

using namespace emap;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSession:
      return "session";
    case Layer::kWindow:
      return "window";
    case Layer::kFir:
      return "fir";
    case Layer::kTransportUp:
      return "transport.up";
    case Layer::kSearch:
      return "search";
    case Layer::kTransportDown:
      return "transport.down";
    case Layer::kTrackerLoad:
      return "tracker.load";
    case Layer::kTrackerStep:
      return "tracker.step";
    case Layer::kPredictor:
      return "predictor";
    case Layer::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::int64_t SpanRecorder::open(Layer layer, std::int64_t parent,
                                std::uint32_t session, std::uint32_t window) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.layer = layer;
  span.parent = parent;
  span.session = session;
  span.window = window;
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::close(std::int64_t index) {
  if (index >= 0) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }
}

void SpanRecorder::write_jsonl(const std::filesystem::path& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    throw std::runtime_error("cannot write span file " + path.string());
  }
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "{\"name\":\"%s\",\"start\":%.3f,\"end\":%.3f,"
                 "\"parent\":%lld,\"session\":%u,\"window\":%u}\n",
                 layer_name(span.layer),
                 static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns) / 1e3,
                 static_cast<long long>(span.parent), span.session,
                 span.window);
  }
  if (std::fclose(file) != 0) {
    throw std::runtime_error("cannot write span file " + path.string());
  }
}

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<core::TrackedSignal> as_tracked(
    const net::CorrelationSetMessage& message) {
  std::vector<core::TrackedSignal> set;
  set.reserve(message.entries.size());
  for (const auto& entry : message.entries) {
    core::TrackedSignal signal;
    signal.set_id = entry.set_id;
    signal.omega = static_cast<double>(entry.omega);
    signal.beta = entry.beta;
    signal.anomalous = entry.anomalous != 0;
    signal.class_tag = entry.class_tag;
    signal.samples = entry.samples;
    set.push_back(std::move(signal));
  }
  return set;
}

// Shed level whose cap max(1, top_k >> L) equals `shed_cap` (0 = none).
std::size_t shed_level(std::size_t shed_cap, std::size_t top_k) {
  if (shed_cap == 0) {
    return 0;
  }
  std::size_t level = 1;
  while (level < 63 && std::max<std::size_t>(1, top_k >> level) > shed_cap) {
    ++level;
  }
  return level;
}

}  // namespace

ReplayOutcome replay_session(const ReplayInputs& inputs, SpanRecorder& spans,
                             std::uint32_t session) {
  const core::EmapConfig& config = *inputs.config;
  const core::RunResult& e2e = *inputs.e2e;
  const std::vector<double>& samples = inputs.input->samples;
  const std::size_t window = config.window_length;
  const bool checkpointing = !inputs.checkpoint_dir.empty();

  ReplayOutcome out;
  auto diverge = [&](std::size_t w, const std::string& what) {
    if (!out.mismatch) {
      out.mismatch = "window " + std::to_string(w) + ": " + what;
    }
  };

  // Whether the call issued at window w was delivered (set_loaded at its
  // resolving window) or exhausted its retries (degraded there).
  const std::size_t n = e2e.iterations.size();
  std::vector<bool> call_succeeds(n, inputs.unresolved_call_succeeded);
  for (std::size_t w = 0; w < n; ++w) {
    if (!e2e.iterations[w].cloud_call_issued) {
      continue;
    }
    for (std::size_t later = w + 1; later < n; ++later) {
      const auto& record = e2e.iterations[later];
      if (record.set_loaded || record.degraded) {
        call_succeeds[w] = record.set_loaded;
        break;
      }
    }
  }

  const std::uint32_t input_fp =
      crc32(samples.data(), samples.size() * sizeof(double));
  const std::string config_fp = config.fingerprint();

  core::EdgeNode edge(config);
  std::optional<net::CorrelationSetMessage> latest;
  std::optional<core::PendingSearch> in_flight;
  std::int64_t last_loaded_sequence = -1;
  double last_pa = 0.0;

  const ScopedSpan session_span(spans, Layer::kSession, -1, session, 0);
  for (std::size_t w = 0; w < n; ++w) {
    const core::IterationRecord& record = e2e.iterations[w];
    if (record.window_index != w || (w + 1) * window > samples.size()) {
      diverge(w, "record does not match the input windows");
      break;
    }
    const auto win = static_cast<std::uint32_t>(w);
    const ScopedSpan window_span(spans, Layer::kWindow, session_span.index(),
                                 session, win);
    const std::int64_t parent = window_span.index();

    std::vector<double> filtered;
    {
      const ScopedSpan span(spans, Layer::kFir, parent, session, win);
      filtered = edge.acquire_window(
          std::span<const double>(samples.data() + w * window, window));
    }
    // The degradation controller's decisions for this window, recovered
    // from the record: shed level L caps the set at top_k >> L and widens
    // the re-check stride by 2^L.
    const std::size_t level = shed_level(record.shed_cap, config.top_k);
    edge.tracker().set_stride_multiplier(std::size_t{1} << level);
    if (record.shed_cap > 0) {
      edge.tracker().shed_to(record.shed_cap);
    }

    if (record.set_loaded) {
      if (!latest) {
        diverge(w, "set loaded with no call issued");
        break;
      }
      if (record.shed_cap > 0 && latest->entries.size() > record.shed_cap) {
        latest->entries.resize(record.shed_cap);
      }
      {
        const ScopedSpan span(spans, Layer::kTrackerLoad, parent, session,
                              win);
        edge.tracker().load_from_message(*latest);
      }
      last_loaded_sequence = latest->request_sequence;
      if (!same_bits(edge.tracker().anomaly_probability(),
                     record.pa_on_load)) {
        diverge(w, "P_A on load differs");
      }
      in_flight.reset();
    } else if (record.degraded) {
      in_flight.reset();
    }

    double pa = last_pa;
    if (record.tracked) {
      core::TrackStepResult step;
      {
        const ScopedSpan span(spans, Layer::kTrackerStep, parent, session,
                              win);
        step = edge.tracker().step(filtered);
      }
      out.step_abs_ops.push_back(step.abs_ops);
      pa = step.anomaly_probability;
      last_pa = pa;
      if (step.tracked_after != record.tracked_after ||
          step.abs_ops != record.abs_ops) {
        diverge(w, "tracking step differs (tracked_after " +
                       std::to_string(step.tracked_after) + " vs " +
                       std::to_string(record.tracked_after) + ", abs_ops " +
                       std::to_string(step.abs_ops) + " vs " +
                       std::to_string(record.abs_ops) + ")");
      }
      if (step.tracked_after >= config.predict_min_support) {
        const ScopedSpan span(spans, Layer::kPredictor, parent, session,
                              win);
        edge.predictor().observe(pa, record.t_sec);
      }
    }
    if (!same_bits(pa, record.anomaly_probability)) {
      diverge(w, "P_A " + std::to_string(pa) + " vs e2e " +
                     std::to_string(record.anomaly_probability));
    }

    if (record.cloud_call_issued) {
      std::vector<std::uint8_t> up_bytes;
      net::SignalUploadMessage at_cloud;
      {
        const ScopedSpan span(spans, Layer::kTransportUp, parent, session,
                              win);
        up_bytes = net::encode_upload(edge.make_upload(win, filtered));
        at_cloud = net::decode_upload(up_bytes);
      }
      net::CorrelationSetMessage response;
      core::SearchStats stats;
      {
        const ScopedSpan span(spans, Layer::kSearch, parent, session, win);
        response = inputs.cloud->respond(at_cloud, &stats);
      }
      out.searches.push_back(stats);
      {
        const ScopedSpan span(spans, Layer::kTransportDown, parent, session,
                              win);
        const std::vector<std::uint8_t> down_bytes =
            net::encode_correlation_set(response);
        out.down_bytes.push_back(down_bytes.size());
        latest = net::decode_correlation_set(down_bytes);
      }
      if (checkpointing) {
        core::PendingSearch pending;
        pending.sequence = win;
        pending.succeeded = call_succeeds[w];
        if (pending.succeeded) {
          pending.correlation_set = as_tracked(*latest);
        }
        in_flight = std::move(pending);
      }
    }

    if (checkpointing) {
      const ScopedSpan span(spans, Layer::kCheckpoint, parent, session, win);
      robust::SessionState state;
      state.config_fingerprint = config_fp;
      state.input_fingerprint = input_fp;
      state.next_window = w + 1;
      state.last_pa = last_pa;
      state.last_loaded_sequence = last_loaded_sequence;
      state.tracker.loaded = edge.tracker().loaded();
      state.tracker.steps_since_load = edge.tracker().steps_since_load();
      state.tracker.tracked.reserve(edge.tracker().active().size());
      for (const core::TrackedSignal& signal : edge.tracker().active()) {
        state.tracker.tracked.push_back(core::to_signal_state(signal));
      }
      state.predictor.history = edge.predictor().history();
      state.predictor.alarmed = edge.predictor().anomaly_predicted();
      state.predictor.alarm_time_sec = edge.predictor().first_alarm_sec();
      state.predictor.consecutive = edge.predictor().consecutive_hits();
      state.fir = edge.filter().save_stream();
      if (in_flight) {
        state.pending = core::to_call_checkpoint(*in_flight);
      }
      robust::write_checkpoint(inputs.checkpoint_dir, state);
      out.snapshot_bytes.push_back(static_cast<std::size_t>(
          std::filesystem::file_size(
              robust::checkpoint_path(inputs.checkpoint_dir))));
    }
  }
  return out;
}

}  // namespace loopbench
