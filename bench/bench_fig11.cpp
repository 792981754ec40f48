// Fig. 11 reproduction: accuracy of Algorithm 1 vs the exhaustive search.
//
// Paper: over 100 normal and 100 anomalous inputs, the average
// cross-correlation of the top-100 signals found by Algorithm 1 is nearly
// identical to the exhaustive search's (loss "almost non-existent"), with
// occasional low-correlation outlier sets caused by the sliding window.
//
// Defaults are sized for a single-core CI run (store subset + fewer inputs
// per class); pass `--full` for the paper-scale sweep.
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "bench_util.hpp"
#include "emap/baselines/exhaustive.hpp"
#include "emap/core/search.hpp"

namespace {

using namespace emap;

double top_mean_omega(const core::SearchResult& result) {
  if (result.matches.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const auto& match : result.matches) {
    sum += match.omega;
  }
  return sum / static_cast<double>(result.matches.size());
}

}  // namespace

int main(int argc, char** argv) {
  // The paper's "loss is almost non-existent" claim depends on a large,
  // highly redundant database: Algorithm 1 only needs *some* near-perfect
  // match to land on its probe grid.  The full store is therefore used
  // even in the default configuration; --full raises the input count to
  // the paper's 100 per class.
  const bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;
  const int inputs_per_class = full ? 100 : (bench::quick_mode() ? 6 : 25);
  mdb::MdbStore store = bench::load_or_build_mdb(bench::per_corpus(26));

  const core::EmapConfig config = core::EmapConfig::paper_defaults();
  core::CrossCorrelationSearch algorithm1(config);
  baselines::ExhaustiveSearch exhaustive(config);

  std::printf("=== Fig. 11: avg top-100 cross-correlation, Algorithm 1 vs "
              "exhaustive ===\n");
  std::printf("store: %zu sets, %d inputs per class%s\n\n", store.size(),
              inputs_per_class, full ? " (--full)" : "");

  double algo1_corr_anomalous = 0.0;
  double loss_pct_anomalous = 0.0;
  for (bool anomalous : {false, true}) {
    std::printf("%s inputs:\n", anomalous ? "anomalous" : "normal");
    double sum_fast = 0.0;
    double sum_full = 0.0;
    double worst_gap = 0.0;
    int counted = 0;
    int outliers = 0;
    for (int i = 0; i < inputs_per_class; ++i) {
      synth::EvalInputSpec spec;
      spec.cls = anomalous ? synth::AnomalyClass::kSeizure
                           : synth::AnomalyClass::kNormal;
      spec.seed = 5000 + static_cast<std::uint64_t>(i) +
                  (anomalous ? 50000 : 0);
      const auto input = synth::make_eval_input(spec);
      const auto filtered = bench::filter_recording(input);
      const auto probe =
          bench::window_at(filtered, spec.onset_sec - 30.0);

      const auto fast = algorithm1.search(probe, store);
      const auto slow = exhaustive.search(probe, store);
      if (fast.matches.empty() || slow.matches.empty()) {
        continue;
      }
      const double mean_fast = top_mean_omega(fast);
      const double mean_full = top_mean_omega(slow);
      sum_fast += mean_fast;
      sum_full += mean_full;
      worst_gap = std::max(worst_gap, mean_full - mean_fast);
      if (mean_full - mean_fast > 0.05) {
        ++outliers;  // the paper's "worst set of signals" spikes
      }
      ++counted;
    }
    if (counted == 0) {
      std::printf("  (no inputs produced matches)\n");
      continue;
    }
    const double avg_fast = sum_fast / counted;
    const double avg_full = sum_full / counted;
    if (anomalous) {
      algo1_corr_anomalous = avg_fast;
      loss_pct_anomalous = (avg_full - avg_fast) / avg_full * 100.0;
    }
    std::printf("  inputs with matches: %d\n", counted);
    std::printf("  avg top-100 corr, exhaustive : %.4f\n", avg_full);
    std::printf("  avg top-100 corr, Algorithm 1: %.4f\n", avg_fast);
    std::printf("  mean loss: %.4f (%.2f%%)  worst per-input gap: %.4f  "
                "outlier inputs (>0.02): %d\n\n",
                avg_full - avg_fast, (avg_full - avg_fast) / avg_full * 100.0,
                worst_gap, outliers);
  }
  // The paper attributes its near-zero loss to "the substantially large
  // and highly redundant data-set".  Measure how the loss depends on store
  // size at our scale (spoiler: it is roughly constant here — the gap is
  // dominated by the probe grid's phase misses within each matching set,
  // so closing it needs redundancy orders of magnitude beyond this MDB, or
  // the exhaustive scan itself).
  std::printf("scale sweep: Algorithm 1 loss vs MDB size\n");
  std::printf("%-10s %14s\n", "sets", "mean loss");
  const std::size_t sweep_full[] = {1000u, 2000u, 4000u, 8190u};
  const std::size_t sweep_quick[] = {500u};
  const std::span<const std::size_t> sweep =
      bench::quick_mode() ? std::span<const std::size_t>(sweep_quick)
                          : std::span<const std::size_t>(sweep_full);
  for (std::size_t limit : sweep) {
    mdb::MdbStore subset(store.info());
    for (std::size_t i = 0; i < std::min<std::size_t>(limit, store.size());
         ++i) {
      auto set = store.at(i);
      set.id = 0;
      subset.insert(std::move(set));
    }
    double loss_sum = 0.0;
    int counted = 0;
    for (int i = 0; i < (bench::quick_mode() ? 3 : 10); ++i) {
      synth::EvalInputSpec spec;
      spec.cls = synth::AnomalyClass::kSeizure;
      spec.seed = 7000 + static_cast<std::uint64_t>(i);
      const auto input = synth::make_eval_input(spec);
      const auto filtered = bench::filter_recording(input);
      const auto probe = bench::window_at(filtered, spec.onset_sec - 30.0);
      const auto fast = algorithm1.search(probe, subset);
      const auto slow = exhaustive.search(probe, subset);
      if (fast.matches.empty() || slow.matches.empty()) {
        continue;
      }
      loss_sum += top_mean_omega(slow) - top_mean_omega(fast);
      ++counted;
    }
    std::printf("%-10zu %14.4f\n", subset.size(),
                counted > 0 ? loss_sum / counted : 0.0);
  }
  std::printf("\nshape check (paper): Algorithm 1's top-100 stays close to "
              "the exhaustive search's, with low-correlation outlier sets "
              "— our gap (~5-10%%) is larger than the paper's near-zero "
              "one; see EXPERIMENTS.md for the discussion\n");
  bench::write_headline(
      "fig11", {{"algo1_avg_corr_anomalous", algo1_corr_anomalous},
                {"algo1_loss_anomalous_pct", loss_pct_anomalous}});
  return 0;
}
