// Fig. 7(b) reproduction: exploration time of exhaustive search vs
// Algorithm 1 over 1000/2000/4000/8000 signal-sets (paper: ~6.8x mean
// reduction on the authors' Python/i7 cloud).
//
// Two measurements are reported:
//  * device-model time — op counts mapped through the calibrated i7-Python
//    profile (the paper-comparable number, including the per-set overhead
//    that dominates Algorithm 1's runtime there);
//  * wall-clock time of this C++ implementation via google-benchmark
//    (the raw evaluation-count ratio, much larger than 6.8x, because the
//    C++ scan has no per-set interpreter overhead).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "emap/baselines/exhaustive.hpp"
#include "emap/core/search.hpp"
#include "emap/obs/profiler.hpp"
#include "emap/obs/alert.hpp"
#include "emap/sim/device.hpp"

namespace {

using namespace emap;

mdb::MdbStore& full_store() {
  static mdb::MdbStore store =
      bench::load_or_build_mdb(bench::per_corpus(26));
  return store;
}

mdb::MdbStore subset(std::size_t count) {
  const auto& full = full_store();
  mdb::MdbStore store(full.info());
  for (std::size_t i = 0; i < std::min(count, full.size()); ++i) {
    auto set = full.at(i);
    set.id = 0;  // reassign
    store.insert(std::move(set));
  }
  return store;
}

std::vector<double> probe_window() {
  synth::EvalInputSpec spec;
  spec.cls = synth::AnomalyClass::kSeizure;
  spec.seed = 77;
  const auto input = synth::make_eval_input(spec);
  const auto filtered = bench::filter_recording(input);
  return bench::window_at(filtered, spec.onset_sec - 30.0);
}

void BM_Exhaustive(benchmark::State& state) {
  const auto store = subset(static_cast<std::size_t>(state.range(0)));
  const auto probe = probe_window();
  baselines::ExhaustiveSearch search{core::EmapConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.search(probe, store));
  }
  state.counters["sets"] = static_cast<double>(store.size());
}

void BM_Algorithm1(benchmark::State& state) {
  const auto store = subset(static_cast<std::size_t>(state.range(0)));
  const auto probe = probe_window();
  core::CrossCorrelationSearch search{core::EmapConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.search(probe, store));
  }
  state.counters["sets"] = static_cast<double>(store.size());
}

BENCHMARK(BM_Exhaustive)->Arg(1000)->Arg(2000)->Arg(4000)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Algorithm1)->Arg(1000)->Arg(2000)->Arg(4000)->Arg(8000)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

double print_device_model_table() {
  const auto cloud = sim::cloud_i7();
  const auto probe = probe_window();
  std::printf("\n=== Fig. 7(b): exploration time on the calibrated cloud "
              "device model ===\n");
  std::printf("%-8s %18s %18s %10s\n", "sets", "exhaustive [s]",
              "Algorithm 1 [s]", "speedup");
  double ratio_sum = 0.0;
  int ratio_count = 0;
  for (std::size_t count : {1000u, 2000u, 4000u, 8000u}) {
    const auto store = subset(count);
    baselines::ExhaustiveSearch exhaustive{core::EmapConfig{}};
    core::CrossCorrelationSearch algorithm1{core::EmapConfig{}};
    const auto full = exhaustive.search(probe, store);
    const auto fast = algorithm1.search(probe, store);
    auto model_seconds = [&cloud, &store](const core::SearchStats& stats) {
      return cloud.seconds_for_macs(static_cast<double>(stats.mac_ops)) +
             cloud.per_signal_overhead_sec *
                 static_cast<double>(store.size());
    };
    const double t_full = model_seconds(full.stats);
    const double t_fast = model_seconds(fast.stats);
    ratio_sum += t_full / t_fast;
    ++ratio_count;
    std::printf("%-8zu %18.2f %18.2f %9.1fx\n", store.size(), t_full,
                t_fast, t_full / t_fast);
  }
  const double mean_speedup = ratio_sum / ratio_count;
  std::printf("mean speedup: %.1fx (paper: ~6.8x)\n", mean_speedup);
  return mean_speedup;
}

// Profiler tax on the instrumented Algorithm 1 scan: the same search with
// the stage hooks disabled vs enabled.  The hooks sit at scan-range
// granularity, so the enabled overhead should stay well under the 5 %
// acceptance bar; the measured number is reported as a headline metric so
// the perf gate tracks it.
double measure_profiler_overhead_pct() {
  const auto store = subset(bench::quick_mode() ? 500 : 2000);
  const auto probe = probe_window();
  core::CrossCorrelationSearch search{core::EmapConfig{}};
  benchmark::DoNotOptimize(search.search(probe, store));  // warm caches
  const int reps = bench::quick_mode() ? 3 : 6;
  auto time_runs = [&]() {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      benchmark::DoNotOptimize(search.search(probe, store));
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  obs::Profiler::set_enabled(false);
  const double disabled_sec = time_runs();
  obs::Profiler::set_enabled(true);
  const double enabled_sec = time_runs();
  obs::Profiler::set_enabled(false);
  const double overhead_pct = (enabled_sec / disabled_sec - 1.0) * 100.0;
  std::printf("\nprofiler overhead on the Algorithm 1 scan: %.2f%% "
              "(disabled %.3fs, enabled %.3fs over %d reps) -> %s\n",
              overhead_pct, disabled_sec, enabled_sec, reps,
              overhead_pct < 5.0 ? "within 5% budget" : "OVER 5% budget");
  return overhead_pct;
}

// Alert-evaluation tax on the same scan: each rep records the pipeline's
// typical per-window telemetry and, in the "on" run, evaluates the built-in
// alert rules against the registry once — the pipeline's cadence (one
// evaluation per window).  Budget: < 2 %.
double measure_alert_eval_overhead_pct() {
  const auto store = subset(bench::quick_mode() ? 500 : 2000);
  const auto probe = probe_window();
  core::CrossCorrelationSearch search{core::EmapConfig{}};
  benchmark::DoNotOptimize(search.search(probe, store));  // warm caches
  const int reps = bench::quick_mode() ? 3 : 6;

  obs::MetricsRegistry registry;
  obs::Counter& windows = registry.counter("emap_pipeline_windows_total");
  obs::Gauge& tracked = registry.gauge("emap_tracked_set_size");
  obs::Histogram& track_step = registry.histogram(
      "emap_track_step_seconds", {}, obs::Histogram::default_latency_bounds());
  for (const char* slo : {"edge_iteration", "initial_response"}) {
    registry.gauge("emap_slo_burn_rate", {{"slo", slo}}).set(0.1);
  }
  // Pad the registry to a pipeline-sized series population so each rule
  // resolves its key against a realistic number of instruments.
  for (int i = 0; i < 40; ++i) {
    registry.counter("emap_bench_pad_total", {{"i", std::to_string(i)}})
        .increment();
  }

  auto time_runs = [&](obs::AlertEngine* engine) {
    double t_virtual = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      benchmark::DoNotOptimize(search.search(probe, store));
      windows.increment();
      tracked.set(static_cast<double>(i));
      track_step.observe(0.1);
      t_virtual += 1.0;
      if (engine != nullptr) {
        engine->evaluate(registry, t_virtual);
      }
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const double disabled_sec = time_runs(nullptr);
  obs::AlertEngine engine;
  const double enabled_sec = time_runs(&engine);
  const double overhead_pct = (enabled_sec / disabled_sec - 1.0) * 100.0;
  std::printf("alert evaluation overhead on the Algorithm 1 scan: %.2f%% "
              "(disabled %.3fs, enabled %.3fs over %d reps, %zu rules, "
              "%zu registry series) -> %s\n",
              overhead_pct, disabled_sec, enabled_sec, reps,
              obs::AlertEngine::kRuleCount, registry.entries().size(),
              overhead_pct < 2.0 ? "within 2% budget" : "OVER 2% budget");
  return overhead_pct;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Fig. 7(b): wall-clock of this C++ implementation "
              "(google-benchmark) ===\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const double mean_speedup = print_device_model_table();
  const double overhead_pct = measure_profiler_overhead_pct();
  const double alert_pct = measure_alert_eval_overhead_pct();
  bench::write_headline("fig7b",
                        {{"mean_search_speedup", mean_speedup},
                         {"profiler_overhead_pct", overhead_pct},
                         {"alert_eval_overhead_pct", alert_pct}});
  return 0;
}
