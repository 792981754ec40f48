// Deterministic fault-matrix harness: drive the full pipeline through every
// {fault kind} x {direction} cell with fixed seeds and assert the recovery
// invariants hold in each one — no crash, `degraded` flagged exactly when a
// call exhausted its retries, every injected fault visible in the exported
// metrics, and bit-identical replays.  Faults and retry jitter come from
// seeded streams, so each cell's outcome is exactly reproducible.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "emap/core/pipeline.hpp"
#include "emap/core/report.hpp"
#include "emap/obs/metrics.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

enum class FaultKind { kDrop, kCorrupt, kDelay };
enum class Leg { kUpload, kDownload };

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kDelay:
      return "delay";
  }
  return "?";
}

struct MatrixCell {
  FaultKind kind;
  Leg leg;

  std::string name() const {
    return std::string(kind_name(kind)) +
           (leg == Leg::kUpload ? "/upload" : "/download");
  }
};

class FaultMatrixTest : public ::testing::Test {
 protected:
  static synth::Recording input() {
    synth::EvalInputSpec spec;
    spec.cls = synth::AnomalyClass::kSeizure;
    spec.seed = 21;
    spec.duration_sec = 60.0;
    spec.onset_sec = 50.0;
    return synth::make_eval_input(spec);
  }

  static PipelineOptions cell_options(const MatrixCell& cell, double p,
                                      obs::MetricsRegistry* registry) {
    PipelineOptions options;
    options.metrics = registry;
    net::FaultSpec& spec =
        cell.leg == Leg::kUpload ? options.fault.up : options.fault.down;
    switch (cell.kind) {
      case FaultKind::kDrop:
        spec.drop = p;
        break;
      case FaultKind::kCorrupt:
        spec.corrupt = p;
        break;
      case FaultKind::kDelay:
        spec.delay = p;
        break;
    }
    options.fault.seed = 0xfau;
    // A short, deterministic retry schedule keeps each failed call to a few
    // simulated seconds so degraded cells still track plenty of windows.
    options.retry.max_attempts = 2;
    options.retry.deadline_sec = 6.0;
    return options;
  }

  static RunResult run_cell(const MatrixCell& cell, double p,
                            obs::MetricsRegistry* registry) {
    EmapPipeline pipeline(testing::small_mdb(6), EmapConfig{},
                          cell_options(cell, p, registry));
    return pipeline.run(input());
  }

  /// Cross-checks the invariants every cell must satisfy, whatever the
  /// fault schedule did.
  static void check_invariants(const RunResult& result) {
    ASSERT_FALSE(result.iterations.empty());
    std::size_t loads = 0;
    std::size_t degraded_windows = 0;
    for (const auto& record : result.iterations) {
      loads += record.set_loaded ? 1 : 0;
      degraded_windows += record.degraded ? 1 : 0;
      // A window can resolve one pending call at most one way.
      EXPECT_FALSE(record.set_loaded && record.degraded);
    }
    // `degraded` is flagged exactly when a call exhausted its retries.
    EXPECT_EQ(loads, result.cloud_calls);
    EXPECT_EQ(degraded_windows, result.failed_cloud_calls);
    EXPECT_EQ(result.degraded, result.failed_cloud_calls > 0);
  }

  static void expect_identical(const RunResult& a, const RunResult& b) {
    ASSERT_EQ(a.iterations.size(), b.iterations.size());
    for (std::size_t i = 0; i < a.iterations.size(); ++i) {
      const auto& x = a.iterations[i];
      const auto& y = b.iterations[i];
      EXPECT_EQ(x.set_loaded, y.set_loaded) << "window " << i;
      EXPECT_EQ(x.degraded, y.degraded) << "window " << i;
      EXPECT_EQ(x.tracked_after, y.tracked_after) << "window " << i;
      EXPECT_DOUBLE_EQ(x.anomaly_probability, y.anomaly_probability)
          << "window " << i;
    }
    EXPECT_EQ(a.cloud_calls, b.cloud_calls);
    EXPECT_EQ(a.failed_cloud_calls, b.failed_cloud_calls);
    EXPECT_EQ(a.retry_attempts, b.retry_attempts);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_DOUBLE_EQ(a.first_alarm_sec, b.first_alarm_sec);
  }

  static std::vector<MatrixCell> all_cells() {
    std::vector<MatrixCell> cells;
    for (FaultKind kind :
         {FaultKind::kDrop, FaultKind::kCorrupt, FaultKind::kDelay}) {
      for (Leg leg : {Leg::kUpload, Leg::kDownload}) {
        cells.push_back({kind, leg});
      }
    }
    return cells;
  }
};

TEST_F(FaultMatrixTest, EveryCellSurvivesAndKeepsItsInvariants) {
  for (const MatrixCell& cell : all_cells()) {
    SCOPED_TRACE(cell.name());
    obs::MetricsRegistry registry;
    const RunResult result = run_cell(cell, 0.35, &registry);
    check_invariants(result);
    // The cloud stayed reachable often enough to deliver at least one set.
    EXPECT_GE(result.cloud_calls, 1u);

    // Every injected fault of the cell's kind/direction shows up in the
    // exported counters.
    const char* dir = cell.leg == Leg::kUpload ? "up" : "down";
    const std::uint64_t injected =
        registry
            .counter("emap_net_faults_total",
                     {{"direction", dir}, {"kind", kind_name(cell.kind)}})
            .value();
    EXPECT_GT(injected, 0u) << "cell injected no faults — seed too benign";

    if (cell.kind == FaultKind::kDelay) {
      // Timeouts guard message loss, not lateness: delayed responses are
      // accepted late and never degrade the edge.
      EXPECT_FALSE(result.degraded);
      EXPECT_EQ(result.failed_cloud_calls, 0u);
      EXPECT_EQ(registry.counter("emap_edge_retry_timeouts_total").value(),
                0u);
    } else if (cell.kind == FaultKind::kCorrupt && cell.leg == Leg::kDownload) {
      // Download corruption is CRC-detected at the edge decoder: a typed
      // `corrupt` reject (fast-fail), not a silent timeout.
      EXPECT_GT(registry
                    .counter("emap_edge_rejects_total",
                             {{"reason", "corrupt"}})
                    .value(),
                0u);
      EXPECT_GT(result.retry_attempts, 0u);
    } else {
      // Other lossy cells look like silence from the edge: a timeout.
      // (Corrupted uploads never reach the cloud intact, so no response
      // comes back — indistinguishable from a drop.)
      EXPECT_GT(registry.counter("emap_edge_retry_timeouts_total").value(),
                0u);
      EXPECT_GT(registry
                    .counter("emap_edge_rejects_total",
                             {{"reason", "timeout"}})
                    .value(),
                0u);
      EXPECT_GT(result.retry_attempts, 0u);
    }
  }
}

TEST_F(FaultMatrixTest, LossyCellsAreDeterministicUnderReplay) {
  for (const MatrixCell& cell :
       {MatrixCell{FaultKind::kDrop, Leg::kUpload},
        MatrixCell{FaultKind::kCorrupt, Leg::kDownload}}) {
    SCOPED_TRACE(cell.name());
    const RunResult a = run_cell(cell, 0.35, nullptr);
    const RunResult b = run_cell(cell, 0.35, nullptr);
    expect_identical(a, b);
  }
}

TEST_F(FaultMatrixTest, ZeroProbabilityMatchesFaultFreeRunBitForBit) {
  // The injector is always attached; with every probability at zero it must
  // be unobservable — including across different injector seeds, which
  // would diverge immediately if any draw leaked into the run.
  PipelineOptions baseline;
  PipelineOptions zeroed = baseline;
  zeroed.fault.seed = 0x1234u;  // different seed, still p = 0
  EmapPipeline a(testing::small_mdb(6), EmapConfig{}, baseline);
  EmapPipeline b(testing::small_mdb(6), EmapConfig{}, zeroed);
  const RunResult ra = a.run(input());
  const RunResult rb = b.run(input());
  expect_identical(ra, rb);
  EXPECT_FALSE(ra.degraded);
  EXPECT_EQ(ra.failed_cloud_calls, 0u);
  EXPECT_EQ(ra.retry_attempts, 0u);
  EXPECT_EQ(ra.duplicates_discarded, 0u);
}

TEST_F(FaultMatrixTest, ChaosCellSurvivesEverythingAtOnce) {
  // All five faults on both legs simultaneously; the run must still
  // complete with its invariants intact and the report must serialize.
  PipelineOptions options;
  obs::MetricsRegistry registry;
  options.metrics = &registry;
  for (net::FaultSpec* spec : {&options.fault.up, &options.fault.down}) {
    spec->drop = 0.15;
    spec->corrupt = 0.15;
    spec->duplicate = 0.25;
    spec->reorder = 0.10;
    spec->delay = 0.25;
  }
  options.fault.seed = 0xc4a05u;
  options.retry.max_attempts = 3;
  options.retry.deadline_sec = 6.0;
  EmapPipeline pipeline(testing::small_mdb(6), EmapConfig{}, options);
  const RunResult result = pipeline.run(input());
  check_invariants(result);
  EXPECT_GE(result.cloud_calls, 1u);
  EXPECT_GT(result.retry_attempts, 0u);

  // Sequence dedup: duplicated downloads on successful calls are counted
  // and discarded, and the metric agrees with the run counter.
  EXPECT_EQ(registry.counter("emap_edge_duplicates_discarded_total").value(),
            result.duplicates_discarded);

  // The degraded flag survives serialization in both report formats.
  const std::string json = run_summary_json(result);
  EXPECT_NE(json.find("\"degraded\":"), std::string::npos);
  EXPECT_NE(json.find("\"failed_cloud_calls\":"), std::string::npos);
  EXPECT_NE(iterations_jsonl(result).find("\"degraded\":"),
            std::string::npos);
}

TEST_F(FaultMatrixTest, PermanentOutageDegradesEveryCallButKeepsTracking) {
  // A fully dead downlink: every call must fail after its retries, the edge
  // must keep tracking the stale set it never got, i.e. never load one.
  PipelineOptions options;
  options.fault.down.drop = 1.0;
  options.retry.max_attempts = 2;
  options.retry.deadline_sec = net::kMaxTimeoutSec;
  EmapPipeline pipeline(testing::small_mdb(6), EmapConfig{}, options);
  const RunResult result = pipeline.run(input());
  check_invariants(result);
  EXPECT_EQ(result.cloud_calls, 0u);
  EXPECT_GT(result.failed_cloud_calls, 0u);
  EXPECT_TRUE(result.degraded);
  // With no set ever loaded, no window can have tracked.
  for (const auto& record : result.iterations) {
    EXPECT_FALSE(record.tracked);
  }
  // The edge keeps re-attempting: each failure is followed by a fresh call.
  EXPECT_GE(result.failed_cloud_calls, 2u);
}

}  // namespace
}  // namespace emap::core
