#include "emap/core/search.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

#include "emap/common/error.hpp"
#include "emap/dsp/kernels.hpp"
#include "emap/dsp/simd.hpp"
#include "emap/dsp/xcorr.hpp"
#include "emap/obs/profiler.hpp"

namespace emap::core {
namespace {

bool better_match(const SearchMatch& a, const SearchMatch& b) {
  if (a.omega != b.omega) return a.omega > b.omega;
  if (a.set_id != b.set_id) return a.set_id < b.set_id;
  return a.beta < b.beta;
}

// Stage-path literal per dispatch arm, so flamegraphs and perfdiff
// headlines distinguish scalar from AVX2 scans.  ProfileScope keys nodes
// by literal pointer identity, hence one literal per arm rather than a
// formatted string.
const char* scan_stage_name(dsp::simd::Level level) {
  return level == dsp::simd::Level::kAvx2 ? "search_scan[impl=avx2]"
                                          : "search_scan[impl=scalar]";
}

/// One signal-set's β walk inside the lockstep scan.
struct Lane {
  std::size_t index = 0;  ///< store position of the set
  const float* samples = nullptr;
  std::size_t beta = 0;
  std::size_t limit = 0;  ///< paper line 4: β < Length(S) - Length(I_N)
};

}  // namespace

std::vector<SearchMatch> select_top_k(std::vector<SearchMatch> candidates,
                                      std::size_t k) {
  if (candidates.size() > k) {
    std::nth_element(candidates.begin(),
                     candidates.begin() + static_cast<std::ptrdiff_t>(k),
                     candidates.end(), better_match);
    candidates.resize(k);
  }
  std::sort(candidates.begin(), candidates.end(), better_match);
  return candidates;
}

CrossCorrelationSearch::CrossCorrelationSearch(const EmapConfig& config,
                                               ThreadPool* pool)
    : config_(config), pool_(pool) {
  config_.validate();
  build_skip_table();
}

std::size_t CrossCorrelationSearch::skip_for_omega(double omega) const {
  // Paper lines 9-11: negative correlations are clamped to zero before the
  // skip computation, so anti-correlated regions jump the farthest.
  const double bounded =
      std::min(std::pow(config_.alpha, std::clamp(omega, 0.0, 1.0) - 1.0),
               static_cast<double>(config_.max_skip));
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(bounded)));
}

// Exactness: validate() keeps α in (0, 1), so α^(x-1) strictly decreases
// in x, and ω - 1 rounds monotonically, so over a cell [a, b) every
// min(α^(ω-1), max_skip) lies between the two endpoint values up to pow's
// error (glibc: < 1 ULP, far below kMargin).  Endpoint values kMargin
// (relative) clear of every rounding edge k ± ½ and of max_skip therefore
// bound all values in the cell away from those edges: no edge between
// them means one answer for the whole cell, and one edge means one step,
// whose position t bisection on skip_for_omega itself finds.  Near t only
// ω within pow's error of the true crossing can round either way, a band
// far inside kSkipGuard.  Likewise, when both unclamped endpoint values
// α^(ω-1) clear max_skip by kMargin, every value in the cell clamps to
// max_skip, so the cell answers max_skip throughout.
void CrossCorrelationSearch::build_skip_table() {
  constexpr double kMargin = 1e-12;
  const double cap = static_cast<double>(config_.max_skip);
  const auto settled = [&](double v) {
    const double margin = kMargin * v;
    return std::abs(v - std::floor(v) - 0.5) >= margin &&
           std::abs(v - cap) >= margin && v <= UINT32_MAX;
  };
  const auto saturated = [&](double raw) {
    return raw - cap >= kMargin * raw && cap <= UINT32_MAX;
  };
  skip_at_zero_ = skip_for_omega(0.0);
  skip_cells_.assign(kSkipCells,
                     SkipCell{std::numeric_limits<double>::quiet_NaN(), 0, 0});
  const double cells = static_cast<double>(kSkipCells);
  double raw_a = std::pow(config_.alpha, -1.0);
  for (std::size_t j = 0; j < kSkipCells; ++j) {
    const double a = static_cast<double>(j) / cells;
    const double b = static_cast<double>(j + 1) / cells;
    const double raw_b = std::pow(config_.alpha, b - 1.0);
    const double raw_at_a = std::exchange(raw_a, raw_b);
    if (saturated(raw_at_a) && saturated(raw_b)) {
      const auto max_skip = static_cast<std::uint32_t>(config_.max_skip);
      skip_cells_[j] = SkipCell{std::numeric_limits<double>::infinity(),
                                max_skip, max_skip};
      continue;
    }
    const double value_at_a = std::min(raw_at_a, cap);
    const double value_b = std::min(raw_b, cap);
    if (!settled(value_at_a) || !settled(value_b)) {
      continue;
    }
    // Rounding edges k + ½ in (value_b, value_at_a); α^(ω-1) decreases.
    const double edges =
        std::floor(value_at_a - 0.5) - std::floor(value_b - 0.5);
    if (edges > 1.0) {
      continue;
    }
    const auto below = static_cast<std::uint32_t>(skip_for_omega(a));
    if (edges == 0.0) {
      skip_cells_[j] =
          SkipCell{std::numeric_limits<double>::infinity(), below, below};
      continue;
    }
    double lo = a;  // skip_for_omega(lo) == below
    double hi = b;  // skip_for_omega(hi) != below
    for (double mid = lo + (hi - lo) / 2; mid > lo && mid < hi;
         mid = lo + (hi - lo) / 2) {
      if (skip_for_omega(mid) == below) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    skip_cells_[j] =
        SkipCell{hi, below, static_cast<std::uint32_t>(skip_for_omega(b))};
  }
}

std::size_t CrossCorrelationSearch::settled_skip(double lo, double hi) const {
  // Written so that NaN fails.
  if (!(lo <= hi && hi < 1.0)) {
    return 0;
  }
  if (hi <= 0.0) {
    return skip_at_zero_;
  }
  // ω <= 0 answers skip_for_omega(0), cell 0's value at its left end, so
  // the part of [lo, hi] below 0 joins cell 0.
  const double cells = static_cast<double>(kSkipCells);
  const std::size_t first =
      lo <= 0.0 ? 0 : static_cast<std::size_t>(lo * cells);
  const std::size_t last = static_cast<std::size_t>(hi * cells);
  if (last > first + 1) {
    return 0;
  }
  std::size_t answer = 0;
  for (std::size_t j = first; j <= last; ++j) {
    const SkipCell& cell = skip_cells_[j];
    const double from = j == first ? lo : static_cast<double>(j) / cells;
    const double to = j == last ? hi : static_cast<double>(j + 1) / cells;
    std::size_t value = 0;
    if (to < cell.split - kSkipGuard) {
      value = cell.below;
    } else if (from > cell.split + kSkipGuard) {
      value = cell.above;
    } else {
      return 0;  // a step's guard band, or an unsettled cell (NaN split)
    }
    if (j != first && value != answer) {
      return 0;
    }
    answer = value;
  }
  return answer;
}

SearchResult CrossCorrelationSearch::search(
    std::span<const double> input_window, const mdb::MdbStore& store) const {
  const auto start_time = std::chrono::steady_clock::now();
  require(input_window.size() == config_.window_length,
          "CrossCorrelationSearch: input window length mismatch");

  const dsp::NormalizedWindow probe(input_window);
  // The f32 probe copy and its error bound, built only where the arm has
  // a screen (the scalar arm evaluates every lane exactly).  A degenerate
  // probe correlates as 0 everywhere and runs no kernel at all.
  std::optional<dsp::kernels::ScreenProbe> screen;
  if (!probe.degenerate() &&
      dsp::kernels::table(dsp::simd::active_level()).screen_x4 != nullptr) {
    screen.emplace(probe.samples());
  }
  const std::size_t window = config_.window_length;

  std::mutex merge_mutex;
  std::vector<SearchMatch> candidates;
  std::atomic<std::uint64_t> total_evals{0};
  std::atomic<std::uint64_t> total_exact{0};
  std::atomic<std::uint64_t> total_hits{0};
  std::atomic<std::uint64_t> total_offsets{0};

  // Lockstep scan: up to kNccLanes signal-sets walk their own β
  // sequences side by side.  A set's walk stays serial (its next β
  // depends on ω), but the walks of different sets are independent.
  // Where the arm has an f32 screen, one screen_x4 call screens the next
  // offset of every lane, and a lane whose enclosure [lo, hi] of ω lies
  // at or below δ and inside one skip is settled: it is not a candidate
  // and takes that skip, as its exact ω would.  Every other lane runs the
  // exact ncc_x1, whose ω is bit-identical to probe.correlate() at the
  // same β, hence the β sequences, candidates and counts match a
  // set-by-set scan.
  auto scan_range = [&](std::size_t begin, std::size_t end) {
    const auto& kernel = dsp::kernels::active();
    // The work counter records offsets leapt over by the exponential
    // window (offsets covered minus correlations evaluated) — the quantity
    // Algorithm 1's speedup claim rides on.
    obs::ProfileScope profile_scope(scan_stage_name(kernel.level));
    const bool screened = kernel.screen_x4 != nullptr && screen.has_value();
    std::vector<SearchMatch> local;
    std::uint64_t evals = 0;
    std::uint64_t exact = 0;
    std::uint64_t offsets = 0;
    std::size_t next = begin;
    // Loads the shard's next set with at least one offset into `lane`.
    auto refill = [&](Lane& lane) {
      while (next < end) {
        const std::size_t index = next++;
        const auto& set = store.at(index);
        if (set.samples.size() < window) {
          continue;  // degenerate record; nothing to correlate
        }
        const std::size_t limit = set.samples.size() - window;
        offsets += limit;
        if (limit > 0) {
          lane = Lane{index, set.samples.data(), 0, limit};
          return true;
        }
      }
      return false;
    };
    std::array<Lane, dsp::kernels::kNccLanes> lanes;
    std::size_t live = 0;
    while (live < lanes.size() && refill(lanes[live])) {
      ++live;
    }
    std::array<const float*, dsp::kernels::kNccLanes> cand{};
    std::array<dsp::kernels::OmegaRange, dsp::kernels::kNccLanes> ranges{};
    while (live > 0) {
      // Idle lanes (fewer than kNccLanes sets left) re-read lane 0's
      // window.
      for (std::size_t l = 0; l < cand.size(); ++l) {
        const Lane& lane = lanes[l < live ? l : 0];
        cand[l] = lane.samples + lane.beta;
      }
      if (screened) {
        kernel.screen_x4(*screen, cand.data(), window, ranges.data());
      }
      // Walk the live lanes from the top so a finished lane can take the
      // last live lane's place without skipping an unprocessed one.
      for (std::size_t l = live; l-- > 0;) {
        Lane& lane = lanes[l];
        ++evals;
        std::size_t step = screened && ranges[l].hi <= config_.delta
                               ? settled_skip(ranges[l].lo, ranges[l].hi)
                               : 0;
        if (step == 0) {
          double omega = 0.0;
          if (!probe.degenerate()) {
            const dsp::kernels::DotNormSq sums =
                kernel.ncc_x1(probe.samples().data(), cand[l], window);
            omega = dsp::ncc_from_centered(sums.dot, sums.norm_sq);
            ++exact;
          }
          if (omega > config_.delta) {
            const auto& set = store.at(lane.index);
            local.push_back(SearchMatch{lane.index, set.id, omega,
                                        lane.beta, set.anomalous,
                                        set.class_tag});
          }
          step = skip(omega);
        }
        lane.beta += step;
        if (lane.beta >= lane.limit && !refill(lane)) {
          lane = lanes[--live];
        }
      }
    }
    total_evals.fetch_add(evals, std::memory_order_relaxed);
    total_exact.fetch_add(exact, std::memory_order_relaxed);
    total_hits.fetch_add(local.size(), std::memory_order_relaxed);
    total_offsets.fetch_add(offsets, std::memory_order_relaxed);
    profile_scope.add_work(offsets > evals ? offsets - evals : 0);
    std::lock_guard<std::mutex> lock(merge_mutex);
    candidates.insert(candidates.end(), local.begin(), local.end());
  };

  if (pool_ != nullptr && pool_->size() > 1) {
    pool_->parallel_for(store.size(), scan_range);
  } else {
    scan_range(0, store.size());
  }

  SearchResult result;
  result.matches = select_top_k(std::move(candidates), config_.top_k);
  result.stats.correlation_evals = total_evals.load();
  result.stats.exact_evals = total_exact.load();
  result.stats.mac_ops = total_evals.load() * window;
  result.stats.candidates = total_hits.load();
  result.stats.sets_scanned = store.size();
  result.stats.offsets_total = total_offsets.load();
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  return result;
}

}  // namespace emap::core
