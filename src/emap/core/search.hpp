// Algorithm 1: the signal cross-correlation search.
//
// Scans every signal-set of the mega-database with an exponential sliding
// window: after evaluating the correlation ω at offset β, the offset
// advances by α^(ω-1) (clamped to [1, max_skip]) — low correlation jumps
// far, high correlation steps finely — and offsets whose ω exceeds δ become
// candidates.  The top-100 candidates by ω form the signal correlation set
// T that is transmitted to the edge.
//
// Deviation note (documented in DESIGN.md): the paper's pseudocode ends
// with "AscendingSort(SignalArray, ω); T = SignalArray(0:99)", which as
// written selects the *lowest* correlations; we sort descending, which is
// the evident intent ("top-100 signals, which have the maximum correlation
// with the input signal").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "emap/common/thread_pool.hpp"
#include "emap/core/config.hpp"
#include "emap/mdb/store.hpp"

namespace emap::core {

/// One entry of the signal correlation set T.
struct SearchMatch {
  std::size_t store_index = 0;  ///< position of the set within the store
  std::uint64_t set_id = 0;
  double omega = 0.0;           ///< normalized cross-correlation at β
  std::size_t beta = 0;         ///< matching offset within the signal-set
  bool anomalous = false;
  std::uint8_t class_tag = 0;
};

/// Cost and coverage accounting of one search.
struct SearchStats {
  std::uint64_t correlation_evals = 0;  ///< windows correlated
  /// Evaluations that ran the exact f64 kernel; the rest were settled by
  /// the f32 screen (AVX2 arm only; docs/performance.md, "Screened
  /// evaluation").
  std::uint64_t exact_evals = 0;
  std::uint64_t mac_ops = 0;            ///< correlation_evals * window length
  std::uint64_t candidates = 0;         ///< evaluations with ω > δ
  std::uint64_t sets_scanned = 0;
  /// Offsets an exhaustive scan would have evaluated (Σ per-set positions);
  /// the exponential window's savings are offsets_total - correlation_evals.
  std::uint64_t offsets_total = 0;
  double wall_seconds = 0.0;            ///< measured host time

  /// Fraction of candidate offsets the exponential window skipped
  /// (0 = exhaustive coverage, → 1 as the skip grows); 0 when nothing was
  /// scannable.
  double skip_ratio() const {
    if (offsets_total == 0) {
      return 0.0;
    }
    return 1.0 - static_cast<double>(correlation_evals) /
                     static_cast<double>(offsets_total);
  }
};

/// Search outcome: T plus its statistics.
struct SearchResult {
  std::vector<SearchMatch> matches;  ///< descending ω, at most top_k
  SearchStats stats;
};

/// Algorithm 1 over an MdbStore, optionally parallel across store shards.
class CrossCorrelationSearch {
 public:
  /// `pool` may be null (serial scan); the pool is borrowed, not owned.
  explicit CrossCorrelationSearch(const EmapConfig& config,
                                  ThreadPool* pool = nullptr);

  /// Runs the search for one input window (window_length samples).
  /// Results are deterministic and independent of the shard count.
  SearchResult search(std::span<const double> input_window,
                      const mdb::MdbStore& store) const;

  /// The exponential skip: clamp(round(α^(ω-1)), 1, max_skip) with ω
  /// clamped below at 0 (paper Algorithm 1 lines 9-12).
  std::size_t skip_for_omega(double omega) const;

  /// skip_for_omega(omega) for every ω, read from a table built at
  /// construction: the scan's per-evaluation pow leaves the critical path.
  /// ω ≤ 0 answers skip_for_omega(0); ω in (0, 1) reads cell ⌊ω·kSkipCells⌋.
  /// A cell answers only when the rounding of min(α^(ω-1), max_skip) over
  /// it is provably settled (see docs/performance.md): constant, or one
  /// step at a located ω = t, outside t ± kSkipGuard.  NaN, ω ≥ 1, guard
  /// bands and unsettled cells call skip_for_omega.
  std::size_t skip(double omega) const {
    if (omega <= 0.0) {
      return skip_at_zero_;
    }
    if (omega < 1.0) {
      const SkipCell& cell =
          skip_cells_[static_cast<std::size_t>(omega * kSkipCells)];
      if (omega < cell.split - kSkipGuard) {
        return cell.below;
      }
      if (omega > cell.split + kSkipGuard) {
        return cell.above;
      }
    }
    return skip_for_omega(omega);
  }

  /// The skip every ω in [lo, hi] gets, or 0 when the table cannot show
  /// that one skip holds for the whole interval.  Nonzero only when [lo,
  /// hi] lies in at most two cells of (-inf, 1), each of which answers
  /// one value over its part of the interval (a cell without a step, or
  /// one side of a step's guard band) and the answers agree.  NaN and
  /// hi >= 1 give 0.
  std::size_t settled_skip(double lo, double hi) const;

  /// Table cells over (0, 1); a power of two, so ω·kSkipCells is exact.
  static constexpr std::size_t kSkipCells = 4096;
  /// Half-width of the band around a cell's located step that falls back.
  static constexpr double kSkipGuard = 1e-9;

 private:
  /// One cell [j, j+1)/kSkipCells of the skip table: the answer is `below`
  /// for ω < split - kSkipGuard and `above` for ω > split + kSkipGuard.
  /// A cell without a step has split = +inf; an unsettled cell has split =
  /// NaN, so neither comparison holds and it falls back.
  struct SkipCell {
    double split = 0.0;
    std::uint32_t below = 0;
    std::uint32_t above = 0;
  };

  void build_skip_table();

  EmapConfig config_;
  ThreadPool* pool_;
  std::size_t skip_at_zero_ = 0;
  std::vector<SkipCell> skip_cells_;
};

/// Selects the top-k matches (descending ω, ties broken by set id then β)
/// from an unsorted candidate list.  Shared with the exhaustive baseline.
std::vector<SearchMatch> select_top_k(std::vector<SearchMatch> candidates,
                                      std::size_t k);

}  // namespace emap::core
