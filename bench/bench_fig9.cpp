// Fig. 9 reproduction: timing analysis of the EMAP framework.
//
// Paper: the sensor samples 256 samples per second; the initial MDB search
// costs ~3 s (Eq. 4: Delta_EC + Delta_CS + Delta_CE); thereafter the edge
// tracks in real time (< 1 s per iteration) and re-calls the cloud roughly
// every 5 iterations, with the search overlapping ongoing tracking.
#include <cstdio>

#include "bench_util.hpp"
#include "emap/core/pipeline.hpp"
#include "emap/obs/export.hpp"

int main() {
  using namespace emap;
  // The paper-scale latency needs a paper-scale MDB (Delta_CS dominates):
  // ~11.5k signal-sets puts the calibrated cloud model at ~3 s.
  auto store = bench::load_or_build_mdb(37);

  synth::EvalInputSpec spec;
  spec.cls = synth::AnomalyClass::kSeizure;
  spec.seed = 3;
  const auto input = synth::make_eval_input(spec);

  core::PipelineOptions options;
  options.platform = net::CommPlatform::kLte;
  core::EmapPipeline pipeline(std::move(store),
                              core::EmapConfig::paper_defaults(), options);
  const auto result = pipeline.run(input, /*stop_at_sec=*/40.0);

  std::printf("=== Fig. 9: timing analysis ===\n");
  std::printf("MDB size: %zu signal-sets, platform: LTE\n\n",
              pipeline.cloud().store().size());
  std::printf("Eq. 4 decomposition of the initial overhead:\n");
  std::printf("  Delta_EC (upload)        = %8.4f s\n",
              result.timings.delta_ec_sec);
  std::printf("  Delta_CS (cloud search)  = %8.2f s\n",
              result.timings.delta_cs_sec);
  std::printf("  Delta_CE (download)      = %8.4f s\n",
              result.timings.delta_ce_sec);
  std::printf("  Delta_initial            = %8.2f s   (paper: ~3 s)\n\n",
              result.timings.delta_initial_sec);
  std::printf("edge tracking iteration (device model): mean %.2f s, "
              "max %.2f s   (paper: ~0.9 s, budget 1 s)\n",
              result.timings.mean_track_sec, result.timings.max_track_sec);

  // Cloud re-call cadence.
  std::size_t calls = 0;
  std::size_t tracked_iterations = 0;
  for (const auto& record : result.iterations) {
    if (record.cloud_call_issued) {
      ++calls;
    }
    if (record.tracked) {
      ++tracked_iterations;
    }
  }
  if (calls > 1) {
    std::printf("cloud re-call cadence: one call per %.1f tracked "
                "iterations   (paper: ~5)\n",
                static_cast<double>(tracked_iterations) /
                    static_cast<double>(calls));
  }

  std::printf("\nactivity timeline, first 20 s "
              "(#: busy; tracking overlaps the background cloud call):\n");
  std::printf("%s",
              obs::render_timeline_ascii(*result.tracer, 20.0, 100).c_str());

  bench::write_headline(
      "fig9", {{"delta_ec_sec", result.timings.delta_ec_sec},
               {"delta_cs_sec", result.timings.delta_cs_sec},
               {"delta_ce_sec", result.timings.delta_ce_sec},
               {"delta_initial_sec", result.timings.delta_initial_sec},
               {"mean_track_sec", result.timings.mean_track_sec},
               {"max_track_sec", result.timings.max_track_sec}});

  const bool latency_band = result.timings.delta_initial_sec > 1.5 &&
                            result.timings.delta_initial_sec < 5.0;
  const bool real_time = result.timings.mean_track_sec < 1.0;
  std::printf("\nshape check: Delta_initial in the ~3 s band -> %s; "
              "edge iteration < 1 s -> %s\n",
              latency_band ? "REPRODUCED" : "off-band",
              real_time ? "REPRODUCED" : "violated");
  return 0;
}
