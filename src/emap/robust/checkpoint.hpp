// Crash-consistent checkpoint/restore of one monitoring session.
//
// EMAP is a continuous loop: the tracked correlation set, P_A history,
// degradation/breaker state, and every RNG stream accumulate across
// one-second windows, so a process crash discards the patient's tracking
// history and forces a cold ~3 s cloud re-search.  The checkpoint
// subsystem makes the pipeline restartable: at the end of each window it
// serializes the full resumable session state (SessionState below) and
// makes it durable, so the file on disk always yields either the previous
// complete state or the new complete state — never a torn one, also across
// a power loss.  A resumed run restores every state machine and RNG stream
// and replays from the first un-checkpointed window; on a clean link its
// P_A trajectory is bit-identical to the uninterrupted run's (the recovery
// integration test crashes at every registered crash point and asserts
// exactly that).
//
// The snapshot file is an append-only log (little-endian, sample framing
// mirrors the MDB store format):
//   file    := image record*
//   image   := magic "EMCK" | u32 version | u64 payload_size | payload |
//              u32 crc32(payload)
//   record  := u64 payload_size | u32 crc32(payload_size) | payload |
//              u32 crc32(payload)
//   signal  := u64 set_id | f64 omega | u64 beta | u8 anomalous |
//              u8 class_tag | u64 n | samples
//   samples := u8 1 | f32 scale | i16[n]     (wire image: x = i16 * scale)
//            | u8 0 | f64[n]                 (anything else)
//            | u8 2 | u32 run               (records only: the run-th inline
//                                             sample run of the file)
// Every payload is a whole SessionState; the file's state is the last
// committed one.  An image is published by temp write + fdatasync +
// rename + directory fsync (write_checkpoint), a record by appending its
// body, then its CRC trailer, then fdatasync (CheckpointLog).  A record
// cut short by end of file is a torn tail and is dropped; any complete
// record or image that fails its CRCs or its structure — including a
// back-reference to a run the file does not hold — throws CheckpointError
// (a CorruptData) and is never partially applied.  Versioning policy:
// `kCheckpointVersion` bumps on ANY layout change; there is no
// cross-version migration — an old snapshot is rejected and the session
// cold-starts (documented in docs/robustness.md, "Crash recovery").
//
// Layering note: this is the robust layer, below core — so the snapshot
// carries its own plain TrackedSignalState rather than core::TrackedSignal;
// the pipeline converts at the boundary.  Tracked samples are persisted in
// full: the edge's copies went through the 16-bit wire quantization, so
// they cannot be re-fetched from the MDB without changing every subsequent
// area verdict.  They are stored as that 16-bit image, though: the encoder
// recomputes the wire scale from the samples themselves and keeps the
// int16 form only when it decodes back to the same doubles bit for bit,
// so no other module knows the snapshot format and nothing is lost.  A
// record names a run the file already holds instead of storing it again,
// so the tracked set, unchanged between cloud calls, is written once per
// image.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "emap/common/error.hpp"
#include "emap/common/rng.hpp"
#include "emap/dsp/fir.hpp"
#include "emap/net/fault.hpp"
#include "emap/obs/slo.hpp"
#include "emap/robust/breaker.hpp"
#include "emap/robust/crashpoint.hpp"
#include "emap/robust/degrade.hpp"
#include "emap/robust/quality.hpp"

namespace emap::robust {

/// A snapshot failed validation (bad magic, version skew, CRC mismatch,
/// truncation, or fingerprint mismatch).  Subclass of CorruptData so
/// generic integrity handling still applies; typed so recovery code can
/// distinguish "no snapshot" from "snapshot rejected".
class CheckpointError : public CorruptData {
 public:
  explicit CheckpointError(const std::string& what) : CorruptData(what) {}
};

/// Bump on ANY change to the SessionState layout.  No migrations: a
/// version-skewed snapshot is rejected and the session cold-starts.
/// v2: trace lineage (trace_seed, pending-call trace context) appended.
/// v3: streaming extension (stream topology fingerprint, settled-call and
///     to-replay ledgers, per-worker fault/channel cursors, injector draw
///     cursors) appended.
/// v4: tracked samples tagged and stored as their int16 wire image when
///     it is exact (f64 otherwise).
/// v5: the file is an image followed by appended records, whose samples
///     may refer back to a run stored earlier in the file.
/// v6: v3's stream fingerprint, call ledgers and per-worker cursors
///     removed (the threaded scheduler no longer checkpoints); the
///     injector draw cursors stay.
/// v7: v2's trace_seed (ids always use obs::kDefaultTraceSeed), the link
///     jitter RNG cursor and the degrade controller's pressure EWMA
///     removed (the link has no jitter; the controller one policy).
inline constexpr std::uint32_t kCheckpointVersion = 7;

/// One tracked signal-set as the edge holds it (robust-layer mirror of
/// core::TrackedSignal; samples included — see the layering note above).
struct TrackedSignalState {
  std::uint64_t set_id = 0;
  double omega = 0.0;
  std::uint64_t beta = 0;
  bool anomalous = false;
  std::uint8_t class_tag = 0;
  std::vector<double> samples;
};

/// Edge tracker state: the set plus the staleness counter.
struct TrackerCheckpoint {
  bool loaded = false;
  std::uint64_t steps_since_load = 0;
  std::vector<TrackedSignalState> tracked;
};

/// Anomaly predictor state: the newest `predict_trend_window` P_A values
/// (all the predictor keeps) plus the latched alarm.
struct PredictorCheckpoint {
  std::vector<double> history;
  bool alarmed = false;
  double alarm_time_sec = -1.0;
  std::uint64_t consecutive = 0;
};

/// An in-flight cloud call (the pipeline computes the call synchronously
/// and holds its delivery until ready_at_sec, so the full outcome —
/// including the correlation set — is checkpointable mid-flight).
struct PendingCallCheckpoint {
  double ready_at_sec = 0.0;
  double delta_ec = 0.0;
  double delta_cs = 0.0;
  double delta_ce = 0.0;
  std::uint32_t sequence = 0;
  std::uint64_t attempts = 0;
  std::uint64_t duplicates = 0;
  bool succeeded = false;
  /// Causal chain of the originating window, so the delivery recorded by
  /// the resumed run attaches to the same trace the call was issued under.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  std::vector<TrackedSignalState> correlation_set;
};

/// Cumulative RunResult counters and first-round-trip timings, carried so
/// a resumed run's final report equals the uninterrupted run's.
struct RunCountersCheckpoint {
  std::uint64_t cloud_calls = 0;
  std::uint64_t failed_cloud_calls = 0;
  std::uint64_t retry_attempts = 0;
  std::uint64_t duplicates_discarded = 0;
  bool degraded = false;
  bool first_round_trip_recorded = false;
  double delta_ec_sec = 0.0;
  double delta_cs_sec = 0.0;
  double delta_ce_sec = 0.0;
  double delta_initial_sec = 0.0;
  double total_track_sec = 0.0;
  std::uint64_t track_steps = 0;
  double max_track_sec = 0.0;
  // Robust-summary counters.
  std::uint64_t critical_windows = 0;
  std::uint64_t shed_loads = 0;
  std::uint64_t deferred_flushes = 0;
  std::uint64_t watchdog_trips = 0;
  QualitySummary quality{};
};

/// The full resumable state of one monitoring session at a window
/// boundary.  Everything the pipeline loop reads or mutates across
/// windows; per-process artifacts (spans, histograms, IterationRecords
/// already emitted) are deliberately excluded.
struct SessionState {
  /// EmapConfig::fingerprint() of the writing pipeline; a resume under a
  /// different configuration is rejected (the state machines are
  /// calibrated to these parameters).
  std::string config_fingerprint;
  /// CRC-32 over the input recording's samples; resuming against a
  /// different input would silently replay the wrong patient.
  std::uint32_t input_fingerprint = 0;
  /// First window index NOT yet completed (the resume point).
  std::uint64_t next_window = 0;
  double last_pa = 0.0;
  std::int64_t last_loaded_sequence = -1;
  RunCountersCheckpoint counters{};
  TrackerCheckpoint tracker{};
  PredictorCheckpoint predictor{};
  dsp::FirStreamState fir{};
  std::optional<PendingCallCheckpoint> pending;
  DegradeCheckpoint degrade{};
  BreakerCheckpoint breaker{};
  obs::SloMonitorState edge_slo{};
  obs::SloMonitorState initial_slo{};
  net::FaultInjectorState injector{};
};

/// Serializes one session snapshot image (framing included; no
/// back-references, so it decodes on its own).
std::vector<std::uint8_t> encode_session(const SessionState& state);

/// Parses and validates a snapshot image.  Throws CheckpointError on any
/// framing, version, CRC, or structural violation, and on any value the
/// restore functions would refuse (a shed level past kMaxShedLevel, a
/// breaker or SLO ring of the wrong size or with a cursor outside it, a
/// P_A outside [0, 1], an FIR cursor past its history), so a resume that
/// gets a state restores all of it.  Never reads past the buffer
/// (ASan/UBSan-clean on fuzzed input; the corruption fuzz test asserts
/// this).
SessionState decode_session(const std::vector<std::uint8_t>& bytes);

/// The snapshot file inside a checkpoint directory.
std::filesystem::path checkpoint_path(const std::filesystem::path& dir);

/// Atomically and durably publishes `state` into `dir` (created if
/// needed) as a single image: encode, write to a temp file and fdatasync
/// it, rename over checkpoint_path(dir), fsync the directory.  A crash
/// anywhere before the rename leaves the previous file intact; once this
/// returns, the new one survives a power loss.  `crashpoints` (may be
/// null) is consulted at checkpoint_pre_write / checkpoint_pre_rename /
/// checkpoint_post_write.  Throws IoError on filesystem failure.
void write_checkpoint(const std::filesystem::path& dir,
                      const SessionState& state,
                      CrashPointRegistry* crashpoints = nullptr);

/// Loads the last committed state of the snapshot file in `dir`: its
/// image, then each complete record; a torn final record is dropped.
/// Returns nullopt when no snapshot file exists (fresh session); throws
/// CheckpointError when one exists but fails validation; throws IoError
/// when it cannot be read (any error but "not found", e.g. a path
/// component longer than NAME_MAX).
std::optional<SessionState> read_checkpoint(
    const std::filesystem::path& dir);

/// One run's writer of the snapshot file in a checkpoint directory.
///
/// Most publishes append one record (body, CRC trailer, fdatasync — no
/// temp file, rename or directory fsync); its sample runs refer back to
/// bit-equal runs already in the file, so a window that loaded no new set
/// writes a few kB.  A publish compacts instead — a whole image through
/// write_checkpoint's temp + rename path, whose descriptor then becomes
/// the append descriptor — when it is the log's first (a run never
/// appends to a file another process left behind), when the bytes
/// appended since the last image exceed that image's size, or when an
/// earlier write failed part-way.  The file therefore never exceeds two
/// images plus one record.  Crash points fire on both paths: on an append,
/// checkpoint_pre_write before any byte, checkpoint_pre_rename between
/// the body and the trailer, checkpoint_post_write after the fdatasync.
class CheckpointLog {
 public:
  explicit CheckpointLog(std::filesystem::path dir);
  ~CheckpointLog();
  CheckpointLog(const CheckpointLog&) = delete;
  CheckpointLog& operator=(const CheckpointLog&) = delete;

  /// Durably publishes `state` (append or compaction, see above).  Throws
  /// IoError on filesystem failure; the next publish then compacts.
  void publish(SessionState state, CrashPointRegistry* crashpoints = nullptr);

  /// Ends the run's log: rewrites the file as the single image of the last
  /// published state unless it already is one, then frees the retained
  /// sample runs and closes the file.  Not a publish: no crash points, no
  /// counters.  A no-op when nothing was published.
  void close();

  /// Publishes that took the compaction path.
  std::uint64_t compactions() const { return compactions_; }
  /// Bytes the publishes wrote to the file (images and records).
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  class Runs;

  /// Compaction: publishes the image of `state`; returns its size.
  std::size_t write_image(const SessionState& state,
                          CrashPointRegistry* crashpoints);
  void append(const SessionState& state, CrashPointRegistry* crashpoints);

  std::filesystem::path dir_;
  /// Sample runs the file holds since its image, in file order (null
  /// before the first image and after close()).
  std::unique_ptr<Runs> runs_;
  /// The file, open for appending; -1 before the first image.
  int fd_ = -1;
  /// The file's committed state, kept for close().
  std::optional<SessionState> last_;
  /// Size of the file's image and of the records appended after it.
  std::uint64_t image_bytes_ = 0;
  std::uint64_t appended_bytes_ = 0;
  /// A write failed part-way (or none happened yet): the file's tail and
  /// the retained runs cannot be trusted, so the next publish compacts.
  bool needs_image_ = true;
  std::uint64_t compactions_ = 0;
  std::uint64_t bytes_written_ = 0;
};

/// Pipeline-facing recovery switches (PipelineOptions::recovery).  With a
/// directory set, the batch loop publishes a snapshot after every window.
struct RecoveryOptions {
  /// Directory for snapshots; empty disables checkpointing entirely.
  std::filesystem::path checkpoint_dir;
  /// Attempt to resume from the directory's snapshot at run start; a
  /// missing or rejected snapshot falls back to a cold start.
  bool resume = false;

  bool enabled() const { return !checkpoint_dir.empty(); }
};

/// Recovery outcome of one run, embedded in the RunResult robust summary.
struct RecoverySummary {
  bool enabled = false;            ///< checkpointing was on
  bool resumed = false;            ///< state restored from a snapshot
  std::uint64_t resume_window = 0; ///< first window executed by this run
  std::uint64_t checkpoints_written = 0;
  /// Of those, the publishes that wrote a whole image (the rest appended
  /// one record to the log; see CheckpointLog).
  std::uint64_t checkpoint_compactions = 0;
  /// Bytes those publishes wrote to the snapshot file.
  std::uint64_t checkpoint_bytes_written = 0;
  /// Resume was requested but no usable snapshot existed; ran cold.
  bool cold_start_fallback = false;
  /// Why the snapshot was rejected (empty when none was).
  std::string reject_reason;
  /// next_window of the most recently published snapshot.
  std::uint64_t last_snapshot_window = 0;
};

}  // namespace emap::robust
