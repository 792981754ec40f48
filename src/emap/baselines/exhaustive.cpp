#include "emap/baselines/exhaustive.hpp"

#include <atomic>
#include <chrono>
#include <mutex>

#include "emap/common/error.hpp"
#include "emap/dsp/xcorr.hpp"

namespace emap::baselines {

ExhaustiveSearch::ExhaustiveSearch(const core::EmapConfig& config,
                                   ThreadPool* pool)
    : config_(config), pool_(pool) {
  config_.validate();
}

core::SearchResult ExhaustiveSearch::search(
    std::span<const double> input_window, const mdb::MdbStore& store) const {
  const auto start_time = std::chrono::steady_clock::now();
  require(input_window.size() == config_.window_length,
          "ExhaustiveSearch: input window length mismatch");

  const dsp::NormalizedWindow probe(input_window);
  const std::size_t window = config_.window_length;

  std::mutex merge_mutex;
  std::vector<core::SearchMatch> candidates;
  std::atomic<std::uint64_t> total_evals{0};
  std::atomic<std::uint64_t> total_hits{0};

  auto scan_range = [&](std::size_t begin, std::size_t end) {
    std::vector<core::SearchMatch> local;
    std::vector<double> samples;  // the set widened to f64 (exact)
    std::uint64_t evals = 0;
    for (std::size_t index = begin; index < end; ++index) {
      const auto& set = store.at(index);
      if (set.samples.size() < window) {
        continue;
      }
      samples.assign(set.samples.begin(), set.samples.end());
      const std::size_t limit = set.samples.size() - window;
      for (std::size_t beta = 0; beta < limit; ++beta) {
        const double omega = probe.correlate(
            std::span<const double>(samples).subspan(beta, window));
        ++evals;
        if (omega > config_.delta) {
          local.push_back(core::SearchMatch{index, set.id, omega, beta,
                                            set.anomalous, set.class_tag});
        }
      }
    }
    total_evals.fetch_add(evals, std::memory_order_relaxed);
    total_hits.fetch_add(local.size(), std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(merge_mutex);
    candidates.insert(candidates.end(), local.begin(), local.end());
  };

  if (pool_ != nullptr && pool_->size() > 1) {
    pool_->parallel_for(store.size(), scan_range);
  } else {
    scan_range(0, store.size());
  }

  core::SearchResult result;
  result.matches = core::select_top_k(std::move(candidates), config_.top_k);
  result.stats.correlation_evals = total_evals.load();
  result.stats.mac_ops = total_evals.load() * window;
  result.stats.candidates = total_hits.load();
  result.stats.sets_scanned = store.size();
  // Exhaustive coverage: every offset evaluated, so the skip ratio is 0.
  result.stats.offsets_total = total_evals.load();
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  return result;
}

}  // namespace emap::baselines
