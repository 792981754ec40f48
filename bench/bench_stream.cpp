// Batch loop vs staged streaming pipeline (docs/streaming.md).
//
// The batch window loop issues each cloud search synchronously: the edge
// stops tracking for the wall-clock duration of every MDB scan.  The
// threaded streaming scheduler overlaps those scans with tracking on the
// uplink worker threads, so the same monitoring session should finish in
// less wall time whenever cloud calls are frequent.  This bench runs the
// same seeded sessions through both schedulers and reports:
//
//   - wall-clock window throughput per scheduler, and their ratio
//     (streaming over batch; the perfdiff --require floor asserts the
//     staged pipeline actually beats the batch loop), and
//   - the initial-response time (Delta_initial = Delta_ec + Delta_cs +
//     Delta_ce) under a degraded uplink that holds every message 200 ms —
//     mean and p99 across sessions, checking the cloud-delay scenario
//     stays within the paper's 10 s initial-response budget.
//
// Wall-derived metrics are stripped from the committed baselines (like
// the SIMD speedups, docs/performance.md); the ratio is gated with an
// absolute perfdiff floor instead.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "emap/core/pipeline.hpp"
#include "emap/core/stream.hpp"

namespace {

double percentile(std::vector<double> values, double fraction) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      fraction * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

}  // namespace

int main() {
  using namespace emap;
  auto store = bench::load_or_build_mdb(bench::per_corpus(26));

  const double duration = bench::quick_mode() ? 90.0 : 240.0;
  const int sessions = bench::quick_mode() ? 2 : 5;

  auto make_input = [&](std::uint64_t seed) {
    synth::EvalInputSpec spec;
    spec.cls = synth::AnomalyClass::kSeizure;
    spec.seed = seed;
    spec.duration_sec = duration;
    spec.onset_sec = duration * 0.8;
    return synth::make_eval_input(spec);
  };

  // The degraded-uplink scenario: every message to the cloud held back by
  // exactly 200 ms (delay probability 1, zero-width range), the paper's
  // cloud-congestion case for the initial-response budget.
  auto delayed_options = [] {
    core::PipelineOptions options;
    options.fault.up.delay = 1.0;
    options.fault.up.delay_min_sec = 0.2;
    options.fault.up.delay_max_sec = 0.2;
    options.fault.seed = 11;
    return options;
  };

  std::printf("=== batch loop vs staged streaming pipeline ===\n");
  std::printf("%-8s %10s %12s %14s %14s\n", "session", "windows",
              "batch[ms]", "stream[ms]", "D_init[s]");

  double batch_windows = 0.0;
  double batch_wall_sec = 0.0;
  double stream_windows = 0.0;
  double stream_wall_sec = 0.0;
  std::vector<double> initial_responses;
  for (int session = 0; session < sessions; ++session) {
    const auto input = make_input(101 + static_cast<std::uint64_t>(session));

    core::EmapPipeline batch(store, core::EmapConfig{}, delayed_options());
    auto start = std::chrono::steady_clock::now();
    const auto batch_result = batch.run(input);
    const double batch_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    batch_windows += static_cast<double>(batch_result.iterations.size());
    batch_wall_sec += batch_ms / 1e3;

    core::EmapPipeline engine(store, core::EmapConfig{}, delayed_options());
    core::StreamOptions stream_options;
    stream_options.mode = core::SchedulerMode::kThreaded;
    stream_options.stage_threads = 2;
    stream_options.queue_capacity = 8;
    core::StreamPipeline stream(engine, stream_options);
    start = std::chrono::steady_clock::now();
    const auto stream_result = stream.run(input);
    const double stream_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
    stream_windows += static_cast<double>(stream_result.iterations.size());
    stream_wall_sec += stream_ms / 1e3;
    initial_responses.push_back(stream_result.timings.delta_initial_sec);

    std::printf("%-8d %10zu %12.1f %14.1f %14.3f\n", session,
                stream_result.iterations.size(), batch_ms, stream_ms,
                stream_result.timings.delta_initial_sec);
  }

  const double batch_tp = batch_windows / batch_wall_sec;
  const double stream_tp = stream_windows / stream_wall_sec;
  const double ratio = stream_tp / batch_tp;
  double initial_sum = 0.0;
  for (double value : initial_responses) {
    initial_sum += value;
  }
  const double initial_mean =
      initial_sum / static_cast<double>(initial_responses.size());
  const double initial_p99 = percentile(initial_responses, 0.99);

  std::printf("\nbatch  throughput: %8.1f windows/s\n", batch_tp);
  std::printf("stream throughput: %8.1f windows/s  (%.2fx batch)\n",
              stream_tp, ratio);
  std::printf("initial response under 200 ms uplink delay: "
              "mean %.3f s, p99 %.3f s\n",
              initial_mean, initial_p99);
  std::printf("conclusion: overlapping cloud scans with edge tracking %s "
              "the batch loop on the same sessions\n",
              ratio > 1.0 ? "beats" : "does NOT beat");

  bench::write_headline(
      "stream", {{"stream_over_batch_ratio", ratio},
                 {"initial_p99_delay200ms_sec", initial_p99},
                 {"initial_mean_delay200ms_sec", initial_mean}});
  return 0;
}
