// Fig. 7(a) reproduction: step-size (alpha) sweep.
//
// Paper: as alpha grows, exploration time and the number of matches grow,
// while the average cross-correlation of the top-100 saturates beyond
// alpha = 0.004 (+1.12% from 0.0008 to 0.004, +0.02% beyond) — which is why
// the framework pins alpha = 0.004.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "emap/core/search.hpp"
#include "emap/dsp/simd.hpp"
#include "emap/sim/device.hpp"

int main() {
  using namespace emap;
  auto store = bench::load_or_build_mdb(bench::per_corpus(26));
  const auto cloud = sim::cloud_i7();

  // Average over a few anomalous probes (the paper's sweep is an average
  // over search requests).
  std::vector<std::vector<double>> probes;
  for (int i = 0; i < (bench::quick_mode() ? 2 : 5); ++i) {
    synth::EvalInputSpec spec;
    spec.cls = synth::AnomalyClass::kSeizure;
    spec.seed = 50 + static_cast<std::uint64_t>(i);
    const auto input = synth::make_eval_input(spec);
    const auto filtered = bench::filter_recording(input);
    probes.push_back(bench::window_at(filtered, spec.onset_sec - 40.0));
  }

  std::printf("=== Fig. 7(a): effect of step-size alpha ===\n");
  std::printf("%-9s %14s %14s %12s %16s\n", "alpha", "expl[ms,model]",
              "expl[ms,wall]", "matches", "avg top-100 corr");
  const double alphas[] = {0.0008, 0.001, 0.002, 0.004, 0.007, 0.01, 0.015};
  double corr_at_0004 = 0.0;
  double corr_at_min = 0.0;
  double corr_at_max = 0.0;
  double model_ms_at_0004 = 0.0;
  for (double alpha : alphas) {
    core::EmapConfig config;
    config.alpha = alpha;
    core::CrossCorrelationSearch search(config);
    double model_ms = 0.0;
    double wall_ms = 0.0;
    double matches = 0.0;
    double avg_corr = 0.0;
    int corr_probes = 0;
    for (const auto& probe : probes) {
      const auto start = std::chrono::steady_clock::now();
      const auto result = search.search(probe, store);
      wall_ms += std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
      model_ms +=
          (cloud.seconds_for_macs(static_cast<double>(result.stats.mac_ops)) +
           cloud.per_signal_overhead_sec *
               static_cast<double>(result.stats.sets_scanned)) *
          1e3;
      matches += static_cast<double>(result.stats.candidates);
      if (!result.matches.empty()) {
        double sum = 0.0;
        for (const auto& match : result.matches) {
          sum += match.omega;
        }
        avg_corr += sum / static_cast<double>(result.matches.size());
        ++corr_probes;
      }
    }
    const double n = static_cast<double>(probes.size());
    const double corr = corr_probes > 0 ? avg_corr / corr_probes : 0.0;
    if (alpha == 0.004) {
      corr_at_0004 = corr;
      model_ms_at_0004 = model_ms / n;
    }
    if (alpha == alphas[0]) corr_at_min = corr;
    if (alpha == alphas[6]) corr_at_max = corr;
    std::printf("%-9.4f %14.1f %14.1f %12.0f %16.4f\n", alpha, model_ms / n,
                wall_ms / n, matches / n, corr);
  }
  std::printf("\nsaturation check (paper: +1.12%% up to alpha=0.004, then "
              "+0.02%%):\n");
  std::printf("  corr gain 0.0008 -> 0.004: %+.2f%%\n",
              (corr_at_0004 / corr_at_min - 1.0) * 100.0);
  std::printf("  corr gain 0.004  -> 0.015: %+.2f%%\n",
              (corr_at_max / corr_at_0004 - 1.0) * 100.0);
  std::printf("conclusion: alpha = 0.004 keeps the top-100 quality while "
              "bounding exploration time (paper Section V-B)\n");

  // Per-implementation scan throughput at the pinned alpha = 0.004: the
  // same probes through one forced dispatch arm per leg.  Both arms run
  // even in quick mode, so the CI smoke workload exercises the whole
  // dispatch matrix; wall-derived metrics below are stripped from the
  // committed baselines (docs/performance.md) and gated with the
  // perfdiff --require absolute floor instead.
  std::printf("\n=== scan throughput per dispatch arm (alpha = 0.004) ===\n");
  std::printf("%-8s %12s %14s %12s %10s %12s %8s\n", "impl", "wall[ms]",
              "Mmac/s", "kernel calls", "evals", "exact evals", "settled");
  core::CrossCorrelationSearch pinned_search{core::EmapConfig{}};
  const int reps = bench::quick_mode() ? 2 : 3;
  // `settled_ratio`: the share of evaluations the arm's f32 screen
  // settled without the exact f64 kernel (0 for the scalar arm).
  auto time_arm = [&](dsp::simd::Level level, double& wall_ms,
                      double& mmacs_per_sec, double& settled_ratio) {
    dsp::simd::force_level(level);
    dsp::simd::reset_kernel_invocations();
    double best_ms = 1e300;
    double macs = 0.0;
    std::uint64_t evals = 0;
    std::uint64_t exact = 0;
    for (int rep = 0; rep < reps; ++rep) {
      double rep_ms = 0.0;
      macs = 0.0;
      evals = 0;
      exact = 0;
      for (const auto& probe : probes) {
        const auto start = std::chrono::steady_clock::now();
        const auto result = pinned_search.search(probe, store);
        rep_ms += std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
        macs += static_cast<double>(result.stats.mac_ops);
        evals += result.stats.correlation_evals;
        exact += result.stats.exact_evals;
      }
      best_ms = std::min(best_ms, rep_ms);
    }
    const std::uint64_t calls = dsp::simd::kernel_invocations(level);
    dsp::simd::force_level(std::nullopt);
    wall_ms = best_ms;
    mmacs_per_sec = macs / best_ms / 1e3;  // macs per ms -> M per s
    settled_ratio =
        evals == 0 ? 0.0
                   : 1.0 - static_cast<double>(exact) /
                               static_cast<double>(evals);
    std::printf("%-8s %12.1f %14.1f %12llu %10llu %12llu %8.4f\n",
                dsp::simd::level_name(level), wall_ms, mmacs_per_sec,
                static_cast<unsigned long long>(calls),
                static_cast<unsigned long long>(evals),
                static_cast<unsigned long long>(exact), settled_ratio);
  };
  double scalar_ms = 0.0;
  double scalar_mmacs = 0.0;
  double scalar_settled = 0.0;
  time_arm(dsp::simd::Level::kScalar, scalar_ms, scalar_mmacs,
           scalar_settled);
  const bool avx2_available =
      dsp::simd::compiled_with_avx2() && dsp::simd::cpu_supports_avx2();
  double avx2_ms = 0.0;
  double avx2_mmacs = 0.0;
  double avx2_settled = 0.0;
  if (avx2_available) {
    time_arm(dsp::simd::Level::kAvx2, avx2_ms, avx2_mmacs, avx2_settled);
    std::printf("speedup avx2/scalar: %.2fx\n", scalar_ms / avx2_ms);
  } else {
    std::printf("avx2     (arm unavailable on this build/host)\n");
  }

  if (avx2_available) {
    bench::write_headline(
        "fig7a", {{"model_ms_alpha0004", model_ms_at_0004},
                  {"avg_corr_alpha0004", corr_at_0004},
                  {"corr_gain_saturation_pct",
                   (corr_at_max / corr_at_0004 - 1.0) * 100.0},
                  {"scan_throughput_mmacs_scalar", scalar_mmacs},
                  {"scan_throughput_mmacs_avx2", avx2_mmacs},
                  {"scan_speedup_avx2", scalar_ms / avx2_ms},
                  {"screen_settled_ratio", avx2_settled}});
  } else {
    // No AVX2 metrics at all: the perfdiff --require floors skip (with a
    // note) instead of failing on hosts that cannot run the arm.
    bench::write_headline(
        "fig7a", {{"model_ms_alpha0004", model_ms_at_0004},
                  {"avg_corr_alpha0004", corr_at_0004},
                  {"corr_gain_saturation_pct",
                   (corr_at_max / corr_at_0004 - 1.0) * 100.0},
                  {"scan_throughput_mmacs_scalar", scalar_mmacs}});
  }
  return 0;
}
