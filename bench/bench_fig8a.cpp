// Fig. 8(a) reproduction: matching-threshold equivalence.
//
// Paper: sweeping the cross-correlation threshold delta in {0.7..0.97} and
// the area-between-curves threshold delta_A in {~400..1200} over the same
// signal population shows that delta_A ~ 900 sq. units yields roughly the
// same number of matches as delta = 0.8 — which is how the edge tracker's
// threshold is chosen.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "emap/dsp/area.hpp"
#include "emap/dsp/simd.hpp"
#include "emap/dsp/xcorr.hpp"

int main() {
  using namespace emap;
  auto store = bench::load_or_build_mdb(bench::per_corpus(26));

  // Sample input windows from monitored patients.
  std::vector<std::vector<double>> probes;
  for (int i = 0; i < (bench::quick_mode() ? 4 : 8); ++i) {
    synth::EvalInputSpec spec;
    spec.cls = (i % 2 == 0) ? synth::AnomalyClass::kSeizure
                            : synth::AnomalyClass::kNormal;
    spec.seed = 300 + static_cast<std::uint64_t>(i);
    const auto input = synth::make_eval_input(spec);
    const auto filtered = bench::filter_recording(input);
    probes.push_back(bench::window_at(filtered, spec.onset_sec - 50.0));
  }

  // One exhaustive pass computing both metrics per (probe, set, offset),
  // restricted to a store subset to bound runtime.
  const std::size_t set_limit =
      std::min<std::size_t>(bench::quick_mode() ? 150 : 600, store.size());
  const std::size_t offset_stride = 4;
  const double deltas[] = {0.7, 0.8, 0.9, 0.95, 0.97};
  const double delta_areas[] = {400, 600, 800, 900, 1000, 1200};
  std::vector<double> ncc_matches(std::size(deltas), 0.0);
  std::vector<double> area_matches(std::size(delta_areas), 0.0);
  // The metrics take f64 windows: widen the scanned subset of the f32 store
  // once (exact), outside every timed loop.
  std::vector<std::vector<double>> sets;
  for (std::size_t s = 0; s < set_limit; ++s) {
    const auto& samples = store.at(s).samples;
    sets.emplace_back(samples.begin(), samples.end());
  }

  for (const auto& probe : probes) {
    const dsp::NormalizedWindow normalized(probe);
    for (std::size_t s = 0; s < set_limit; ++s) {
      const std::span<const double> samples(sets[s]);
      const std::size_t limit = samples.size() - probe.size();
      for (std::size_t beta = 0; beta < limit; beta += offset_stride) {
        const auto candidate = samples.subspan(beta, probe.size());
        const double omega = normalized.correlate(candidate);
        for (std::size_t d = 0; d < std::size(deltas); ++d) {
          if (omega > deltas[d]) {
            ncc_matches[d] += 1.0;
          }
        }
        const double area = dsp::area_between_capped(
            probe, candidate, delta_areas[std::size(delta_areas) - 1]);
        for (std::size_t d = 0; d < std::size(delta_areas); ++d) {
          if (area <= delta_areas[d]) {
            area_matches[d] += 1.0;
          }
        }
      }
    }
  }
  const double n = static_cast<double>(probes.size());

  std::printf("=== Fig. 8(a): average number of matches per input ===\n");
  std::printf("cross-correlation threshold sweep:\n");
  std::printf("%-10s %12s\n", "delta", "avg matches");
  double matches_at_08 = 0.0;
  for (std::size_t d = 0; d < std::size(deltas); ++d) {
    const double avg = ncc_matches[d] / n;
    if (deltas[d] == 0.8) {
      matches_at_08 = avg;
    }
    std::printf("%-10.2f %12.0f\n", deltas[d], avg);
  }
  std::printf("\narea-between-curves threshold sweep:\n");
  std::printf("%-10s %12s\n", "delta_A", "avg matches");
  double best_delta_a = 0.0;
  double best_gap = 1e300;
  for (std::size_t d = 0; d < std::size(delta_areas); ++d) {
    const double avg = area_matches[d] / n;
    const double gap = std::abs(avg - matches_at_08);
    if (gap < best_gap) {
      best_gap = gap;
      best_delta_a = delta_areas[d];
    }
    std::printf("%-10.0f %12.0f\n", delta_areas[d], avg);
  }
  std::printf("\nequivalence: delta = 0.8 (%.0f matches) ~ delta_A = %.0f "
              "sq. units (paper: ~900)\n",
              matches_at_08, best_delta_a);
  // Per-implementation area-kernel throughput: the capped
  // area-between-curves pass (Algorithm 2's hot loop) re-run with each
  // dispatch arm forced, on a store subset.  Both arms run even in quick
  // mode so CI exercises the whole dispatch matrix; wall-derived metrics
  // are excluded from committed baselines and floor-gated with
  // perfdiff --require instead (docs/performance.md).
  std::printf("\n=== area kernel throughput per dispatch arm ===\n");
  std::printf("%-8s %12s %14s %12s\n", "impl", "wall[ms]", "Mops/s",
              "kernel calls");
  const std::size_t arm_set_limit =
      std::min<std::size_t>(bench::quick_mode() ? 40 : 150, store.size());
  const double cap = delta_areas[std::size(delta_areas) - 1];
  const int reps = bench::quick_mode() ? 2 : 3;
  auto time_arm = [&](dsp::simd::Level level, double& wall_ms,
                      double& mops_per_sec) {
    dsp::simd::force_level(level);
    dsp::simd::reset_kernel_invocations();
    double best_ms = 1e300;
    double ops = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      double rep_ms = 0.0;
      ops = 0.0;
      // checksum keeps the arm's work observable (no dead-code elision).
      double checksum = 0.0;
      const auto start = std::chrono::steady_clock::now();
      for (const auto& probe : probes) {
        for (std::size_t s = 0; s < arm_set_limit; ++s) {
          const std::span<const double> samples(sets[s]);
          const std::size_t limit = samples.size() - probe.size();
          for (std::size_t beta = 0; beta < limit; beta += offset_stride) {
            const auto candidate = samples.subspan(beta, probe.size());
            checksum += dsp::area_between_capped(probe, candidate, cap);
            ops += static_cast<double>(probe.size());
          }
        }
      }
      rep_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
      if (checksum < 0.0) std::printf("(impossible checksum)\n");
      best_ms = std::min(best_ms, rep_ms);
    }
    const std::uint64_t calls = dsp::simd::kernel_invocations(level);
    dsp::simd::force_level(std::nullopt);
    wall_ms = best_ms;
    mops_per_sec = ops / best_ms / 1e3;  // ops per ms -> M per s
    std::printf("%-8s %12.1f %14.1f %12llu\n", dsp::simd::level_name(level),
                wall_ms, mops_per_sec, static_cast<unsigned long long>(calls));
  };
  double scalar_ms = 0.0;
  double scalar_mops = 0.0;
  time_arm(dsp::simd::Level::kScalar, scalar_ms, scalar_mops);
  const bool avx2_available =
      dsp::simd::compiled_with_avx2() && dsp::simd::cpu_supports_avx2();
  double avx2_ms = 0.0;
  double avx2_mops = 0.0;
  if (avx2_available) {
    time_arm(dsp::simd::Level::kAvx2, avx2_ms, avx2_mops);
    std::printf("speedup avx2/scalar: %.2fx\n", scalar_ms / avx2_ms);
  } else {
    std::printf("avx2     (arm unavailable on this build/host)\n");
  }

  if (avx2_available) {
    bench::write_headline("fig8a",
                          {{"matches_at_delta08", matches_at_08},
                           {"equivalent_delta_area", best_delta_a},
                           {"area_throughput_mops_scalar", scalar_mops},
                           {"area_throughput_mops_avx2", avx2_mops},
                           {"area_speedup_avx2", scalar_ms / avx2_ms}});
  } else {
    // AVX2 metrics omitted entirely: perfdiff --require floors skip with
    // a note instead of failing on hosts that cannot run the arm.
    bench::write_headline("fig8a",
                          {{"matches_at_delta08", matches_at_08},
                           {"equivalent_delta_area", best_delta_a},
                           {"area_throughput_mops_scalar", scalar_mops}});
  }
  return 0;
}
