// Snapshot integrity tests: the round-trip property
// decode_session(encode_session(s)) == s for fuzzed session states, the
// corruption fuzz (bit flips, truncation, version skew all fail closed
// with CheckpointError — never UB; CI runs this binary under ASan/UBSan),
// the sample encodings (int16 wire image, exact f64 fallback), the atomic
// write-rename publication semantics, and the append-only log
// (CheckpointLog): back-references, torn tails, corrupt records, crashes
// on both write paths, and the compaction bound.
#include "emap/robust/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <utility>

#include "emap/common/crc32.hpp"
#include "emap/common/error.hpp"
#include "emap/common/file_io.hpp"
#include "emap/common/rng.hpp"
#include "emap/net/transport.hpp"
#include "emap/robust/crashpoint.hpp"
#include "support/test_util.hpp"

namespace emap::robust {
namespace {

RngState fuzz_rng_state(Rng& rng) {
  RngState state;
  for (auto& word : state.state) {
    word = rng.next_u64();
  }
  state.seed = rng.next_u64();
  state.spare_normal = rng.normal();
  state.has_spare_normal = rng.bernoulli(0.5);
  return state;
}

std::vector<TrackedSignalState> fuzz_signals(Rng& rng, std::size_t max_sets) {
  std::vector<TrackedSignalState> signals(
      static_cast<std::size_t>(rng.uniform_index(max_sets + 1)));
  for (auto& signal : signals) {
    signal.set_id = rng.next_u64();
    signal.omega = rng.uniform(-2.0, 2.0);
    signal.beta = rng.uniform_index(513);
    signal.anomalous = rng.bernoulli(0.5);
    signal.class_tag = static_cast<std::uint8_t>(rng.uniform_index(5));
    signal.samples.resize(static_cast<std::size_t>(rng.uniform_index(17)));
    for (auto& sample : signal.samples) {
      sample = rng.normal();
    }
  }
  return signals;
}

obs::SloMonitorState fuzz_slo(Rng& rng) {
  obs::SloMonitorState slo;
  slo.observations = rng.next_u64() % 10000;
  slo.deadline_misses = rng.next_u64() % 100;
  slo.near_misses = rng.next_u64() % 100;
  slo.max_latency_sec = rng.uniform(0.0, 5.0);
  // Both paper SLOs keep the default burn window; the decoder accepts
  // only a ring of that size with in-range cursors.
  slo.recent_miss.resize(obs::SloSpec{}.burn_window);
  for (auto& miss : slo.recent_miss) {
    miss = rng.bernoulli(0.2) ? 1 : 0;
  }
  slo.recent_next = rng.next_u64() % slo.recent_miss.size();
  slo.recent_count = rng.next_u64() % (slo.recent_miss.size() + 1);
  slo.recent_misses = rng.next_u64() % (slo.recent_count + 1);
  return slo;
}

/// The emptiest state a run could write: default fields, with the breaker
/// and SLO rings at the sizes the decoder accepts.
SessionState empty_state() {
  SessionState s;
  s.breaker.recent_failure.resize(kBreakerWindow);
  s.edge_slo.recent_miss.resize(obs::SloSpec{}.burn_window);
  s.initial_slo.recent_miss.resize(obs::SloSpec{}.burn_window);
  return s;
}

/// A fully populated, randomized session state (small vectors; the codec
/// is size-agnostic and the fuzz wants many states, not huge ones).
SessionState fuzz_state(std::uint64_t seed) {
  Rng rng(seed);
  SessionState s;
  s.config_fingerprint = "fp" + std::to_string(rng.next_u64() % 100000000);
  s.input_fingerprint = static_cast<std::uint32_t>(rng.next_u64());
  s.next_window = rng.next_u64() % 100000;
  s.last_pa = rng.uniform();
  s.last_loaded_sequence =
      rng.bernoulli(0.2) ? -1 : static_cast<std::int64_t>(rng.next_u64() % 500);
  s.counters.cloud_calls = rng.next_u64() % 1000;
  s.counters.failed_cloud_calls = rng.next_u64() % 100;
  s.counters.retry_attempts = rng.next_u64() % 100;
  s.counters.duplicates_discarded = rng.next_u64() % 100;
  s.counters.degraded = rng.bernoulli(0.5);
  s.counters.first_round_trip_recorded = rng.bernoulli(0.5);
  s.counters.delta_ec_sec = rng.uniform(0.0, 2.0);
  s.counters.delta_cs_sec = rng.uniform(0.0, 2.0);
  s.counters.delta_ce_sec = rng.uniform(0.0, 2.0);
  s.counters.delta_initial_sec = rng.uniform(0.0, 6.0);
  s.counters.total_track_sec = rng.uniform(0.0, 100.0);
  s.counters.track_steps = rng.next_u64() % 100000;
  s.counters.max_track_sec = rng.uniform(0.0, 2.0);
  s.counters.critical_windows = rng.next_u64() % 100;
  s.counters.shed_loads = rng.next_u64() % 100;
  s.counters.deferred_flushes = rng.next_u64() % 100;
  s.counters.watchdog_trips = rng.next_u64() % 10;
  s.counters.quality.assessed = 100 + rng.next_u64() % 100;
  s.counters.quality.good = rng.next_u64() % 100;
  s.counters.quality.nan = rng.next_u64() % 10;
  s.counters.quality.flatline = rng.next_u64() % 10;
  s.counters.quality.saturated = rng.next_u64() % 10;
  s.counters.quality.artifact = rng.next_u64() % 10;
  s.tracker.loaded = rng.bernoulli(0.8);
  s.tracker.steps_since_load = rng.next_u64() % 1000;
  s.tracker.tracked = fuzz_signals(rng, 6);
  s.predictor.history.resize(static_cast<std::size_t>(rng.uniform_index(33)));
  for (auto& pa : s.predictor.history) {
    pa = rng.uniform();
  }
  s.predictor.alarmed = rng.bernoulli(0.3);
  s.predictor.alarm_time_sec = s.predictor.alarmed ? rng.uniform(0.0, 60.0)
                                                   : -1.0;
  s.predictor.consecutive = rng.next_u64() % 10;
  s.fir.history.resize(1 + static_cast<std::size_t>(rng.uniform_index(64)));
  for (auto& tap : s.fir.history) {
    tap = rng.normal();
  }
  s.fir.history_pos = rng.next_u64() % s.fir.history.size();
  if (rng.bernoulli(0.5)) {
    PendingCallCheckpoint pending;
    pending.ready_at_sec = rng.uniform(0.0, 60.0);
    pending.delta_ec = rng.uniform(0.0, 2.0);
    pending.delta_cs = rng.uniform(0.0, 2.0);
    pending.delta_ce = rng.uniform(0.0, 2.0);
    pending.sequence = static_cast<std::uint32_t>(rng.next_u64());
    pending.attempts = 1 + rng.next_u64() % 3;
    pending.duplicates = rng.next_u64() % 3;
    pending.succeeded = rng.bernoulli(0.8);
    pending.correlation_set = fuzz_signals(rng, 4);
    s.pending = std::move(pending);
  }
  s.degrade.state = static_cast<DegradeState>(rng.uniform_index(4));
  s.degrade.shed_level = rng.next_u64() % (kMaxShedLevel + 1);
  s.degrade.bad_streak = rng.next_u64() % 5;
  s.degrade.clean_streak = rng.next_u64() % 5;
  s.degrade.miss_streak = rng.next_u64() % 5;
  s.degrade.critical_left = rng.next_u64() % 5;
  s.degrade.recovered_since_miss = rng.bernoulli(0.5);
  s.degrade.summary.final_state = s.degrade.state;
  s.degrade.summary.transitions = rng.next_u64() % 20;
  s.degrade.summary.windows_nominal = rng.next_u64() % 1000;
  s.degrade.summary.windows_degraded = rng.next_u64() % 1000;
  s.degrade.summary.entered_degraded = rng.bernoulli(0.5);
  s.breaker.state = static_cast<BreakerState>(rng.uniform_index(3));
  s.breaker.open_until_sec = rng.uniform(0.0, 100.0);
  s.breaker.probe_successes = rng.next_u64() % 3;
  s.breaker.recent_failure.resize(kBreakerWindow);
  for (auto& failure : s.breaker.recent_failure) {
    failure = rng.bernoulli(0.3) ? 1 : 0;
  }
  s.breaker.recent_next = rng.next_u64() % kBreakerWindow;
  s.breaker.recent_count = rng.next_u64() % (kBreakerWindow + 1);
  s.breaker.summary.final_state = s.breaker.state;
  s.breaker.summary.opens = rng.next_u64() % 10;
  s.breaker.summary.rejected = rng.next_u64() % 10;
  s.breaker.summary.failures = rng.next_u64() % 100;
  s.breaker.summary.successes = rng.next_u64() % 100;
  s.edge_slo = fuzz_slo(rng);
  s.initial_slo = fuzz_slo(rng);
  s.injector.up_rng = fuzz_rng_state(rng);
  s.injector.down_rng = fuzz_rng_state(rng);
  s.injector.up_counts.messages = rng.next_u64() % 1000;
  s.injector.up_counts.dropped = rng.next_u64() % 100;
  s.injector.up_counts.corrupted = rng.next_u64() % 100;
  s.injector.down_counts.messages = rng.next_u64() % 1000;
  s.injector.down_counts.duplicated = rng.next_u64() % 100;
  s.injector.down_counts.delayed = rng.next_u64() % 100;
  s.injector.up_draws = rng.next_u64() % 100000;
  s.injector.down_draws = rng.next_u64() % 100000;
  return s;
}

void expect_state_eq(const SessionState& a, const SessionState& b) {
  EXPECT_EQ(a.config_fingerprint, b.config_fingerprint);
  EXPECT_EQ(a.input_fingerprint, b.input_fingerprint);
  EXPECT_EQ(a.next_window, b.next_window);
  EXPECT_EQ(a.last_pa, b.last_pa);
  EXPECT_EQ(a.last_loaded_sequence, b.last_loaded_sequence);
  EXPECT_EQ(a.counters.cloud_calls, b.counters.cloud_calls);
  EXPECT_EQ(a.counters.quality.assessed, b.counters.quality.assessed);
  EXPECT_EQ(a.tracker.loaded, b.tracker.loaded);
  EXPECT_EQ(a.tracker.steps_since_load, b.tracker.steps_since_load);
  ASSERT_EQ(a.tracker.tracked.size(), b.tracker.tracked.size());
  for (std::size_t i = 0; i < a.tracker.tracked.size(); ++i) {
    EXPECT_EQ(a.tracker.tracked[i].set_id, b.tracker.tracked[i].set_id);
    EXPECT_EQ(a.tracker.tracked[i].omega, b.tracker.tracked[i].omega);
    EXPECT_EQ(a.tracker.tracked[i].beta, b.tracker.tracked[i].beta);
    EXPECT_EQ(a.tracker.tracked[i].samples, b.tracker.tracked[i].samples);
  }
  EXPECT_EQ(a.predictor.history, b.predictor.history);
  EXPECT_EQ(a.predictor.alarmed, b.predictor.alarmed);
  EXPECT_EQ(a.predictor.alarm_time_sec, b.predictor.alarm_time_sec);
  EXPECT_EQ(a.predictor.consecutive, b.predictor.consecutive);
  EXPECT_EQ(a.fir.history, b.fir.history);
  EXPECT_EQ(a.fir.history_pos, b.fir.history_pos);
  ASSERT_EQ(a.pending.has_value(), b.pending.has_value());
  if (a.pending.has_value()) {
    EXPECT_EQ(a.pending->ready_at_sec, b.pending->ready_at_sec);
    EXPECT_EQ(a.pending->sequence, b.pending->sequence);
    EXPECT_EQ(a.pending->succeeded, b.pending->succeeded);
    EXPECT_EQ(a.pending->correlation_set.size(),
              b.pending->correlation_set.size());
  }
  EXPECT_EQ(a.degrade.state, b.degrade.state);
  EXPECT_EQ(a.degrade.summary.transitions, b.degrade.summary.transitions);
  EXPECT_EQ(a.breaker.state, b.breaker.state);
  EXPECT_EQ(a.breaker.open_until_sec, b.breaker.open_until_sec);
  EXPECT_EQ(a.breaker.recent_failure, b.breaker.recent_failure);
  EXPECT_EQ(a.edge_slo.observations, b.edge_slo.observations);
  EXPECT_EQ(a.edge_slo.recent_miss, b.edge_slo.recent_miss);
  EXPECT_EQ(a.initial_slo.recent_misses, b.initial_slo.recent_misses);
  EXPECT_EQ(a.injector.up_rng.state, b.injector.up_rng.state);
  EXPECT_EQ(a.injector.down_rng.seed, b.injector.down_rng.seed);
  EXPECT_EQ(a.injector.up_counts.messages, b.injector.up_counts.messages);
  EXPECT_EQ(a.injector.up_draws, b.injector.up_draws);
  EXPECT_EQ(a.injector.down_draws, b.injector.down_draws);
}

TEST(Checkpoint, RoundTripPreservesEveryField) {
  const SessionState original = fuzz_state(7);
  const SessionState decoded = decode_session(encode_session(original));
  expect_state_eq(original, decoded);
}

// Property over many fuzzed states: encode is deterministic, so byte
// equality of re-encoded decodes proves decode lost nothing encode wrote.
TEST(CheckpointProperty, EncodeDecodeEncodeIsIdentity) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const SessionState state = fuzz_state(seed);
    const std::vector<std::uint8_t> bytes = encode_session(state);
    const std::vector<std::uint8_t> again =
        encode_session(decode_session(bytes));
    EXPECT_EQ(bytes, again) << "seed " << seed;
  }
}

// Corruption fuzz: a snapshot differing from a valid one in any single bit
// must be rejected with the typed error — magic, version, and size flips
// trip the framing checks, payload and trailer flips trip the CRC.
TEST(CheckpointFuzz, EveryBitFlipFailsClosed) {
  const std::vector<std::uint8_t> bytes = encode_session(fuzz_state(11));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    EXPECT_THROW(decode_session(corrupt), CheckpointError)
        << "flip at byte " << i;
  }
}

TEST(CheckpointFuzz, EveryTruncationFailsClosed) {
  const std::vector<std::uint8_t> bytes = encode_session(fuzz_state(13));
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() + length);
    EXPECT_THROW(decode_session(truncated), CheckpointError)
        << "truncated to " << length;
  }
}

TEST(CheckpointFuzz, TrailingGarbageFailsClosed) {
  std::vector<std::uint8_t> bytes = encode_session(fuzz_state(17));
  bytes.push_back(0x00);
  EXPECT_THROW(decode_session(bytes), CheckpointError);
}

TEST(Checkpoint, VersionSkewIsRejectedWithAClearMessage) {
  std::vector<std::uint8_t> bytes = encode_session(fuzz_state(19));
  const std::uint32_t skewed = kCheckpointVersion + 1;
  std::memcpy(bytes.data() + 4, &skewed, sizeof(skewed));
  try {
    decode_session(bytes);
    FAIL() << "version skew accepted";
  } catch (const CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find("version"), std::string::npos);
  }
}

TEST(Checkpoint, RejectionIsTypedAsCorruptData) {
  // Generic integrity handling (catch CorruptData) must still apply.
  EXPECT_THROW(decode_session({}), CorruptData);
}

TEST(Checkpoint, WriteReadRoundTripOnDisk) {
  testing::TempDir dir("ckpt_roundtrip");
  const SessionState state = fuzz_state(23);
  write_checkpoint(dir.path(), state);
  EXPECT_TRUE(std::filesystem::exists(checkpoint_path(dir.path())));
  const auto loaded = read_checkpoint(dir.path());
  ASSERT_TRUE(loaded.has_value());
  expect_state_eq(state, *loaded);
}

TEST(Checkpoint, LatestWriteWins) {
  testing::TempDir dir("ckpt_overwrite");
  write_checkpoint(dir.path(), fuzz_state(29));
  const SessionState second = fuzz_state(31);
  write_checkpoint(dir.path(), second);
  const auto loaded = read_checkpoint(dir.path());
  ASSERT_TRUE(loaded.has_value());
  expect_state_eq(second, *loaded);
}

TEST(Checkpoint, MissingSnapshotReadsAsNullopt) {
  testing::TempDir dir("ckpt_missing");
  EXPECT_FALSE(read_checkpoint(dir.path()).has_value());
  EXPECT_FALSE(
      read_checkpoint(dir.path() / "never_created").has_value());
}

// Only "not found" means a fresh session: a path the filesystem refuses to
// look up (a component longer than NAME_MAX, ENAMETOOLONG) is an I/O
// error, not a silent cold start.
TEST(Checkpoint, UnreadablePathThrowsIoErrorInsteadOfReadingAsMissing) {
  testing::TempDir dir("ckpt_name_too_long");
  EXPECT_THROW(read_checkpoint(dir.path() / std::string(300, 'x')), IoError);
}

// Atomicity: a crash before the rename — whether before the temp file is
// opened or after it is fully written — leaves the previous snapshot
// intact and loadable.
TEST(Checkpoint, CrashBeforeRenameKeepsThePreviousSnapshot) {
  for (const char* point : {"checkpoint_pre_write", "checkpoint_pre_rename"}) {
    testing::TempDir dir(std::string("ckpt_atomic_") +
                         (point[11] == 'p' ? "prewrite" : "prerename"));
    const SessionState first = fuzz_state(37);
    write_checkpoint(dir.path(), first);
    CrashPointRegistry registry;
    {
      ScopedCrashSchedule guard(registry, {point, 1});
      EXPECT_THROW(write_checkpoint(dir.path(), fuzz_state(41), &registry),
                   InjectedCrash)
          << point;
    }
    const auto loaded = read_checkpoint(dir.path());
    ASSERT_TRUE(loaded.has_value()) << point;
    expect_state_eq(first, *loaded);
  }
}

TEST(Checkpoint, CrashAfterRenameKeepsTheNewSnapshot) {
  testing::TempDir dir("ckpt_postwrite");
  write_checkpoint(dir.path(), fuzz_state(43));
  const SessionState second = fuzz_state(47);
  CrashPointRegistry registry;
  {
    ScopedCrashSchedule guard(registry, {"checkpoint_post_write", 1});
    EXPECT_THROW(write_checkpoint(dir.path(), second, &registry),
                 InjectedCrash);
  }
  const auto loaded = read_checkpoint(dir.path());
  ASSERT_TRUE(loaded.has_value());
  expect_state_eq(second, *loaded);
}

// Signals as the edge holds them: a correlation set encoded by the cloud
// and decoded by the edge, samples dequantized from the int16 wire image.
std::vector<TrackedSignalState> wire_decoded_signals(
    std::uint64_t seed = 0x5eed, std::size_t count = 6) {
  Rng rng(seed);
  net::CorrelationSetMessage message;
  message.request_sequence = 9;
  for (std::size_t e = 0; e < count; ++e) {
    net::CorrelationEntry entry;
    entry.set_id = 1000 + e;
    entry.omega = 0.9f - 0.1f * static_cast<float>(e);
    entry.beta = static_cast<std::uint32_t>(17 * e);
    entry.anomalous = e % 2;
    entry.class_tag = static_cast<std::uint8_t>(e % 3);
    entry.samples.resize(1000);
    const double amplitude = 40.0 * static_cast<double>(e + 1);
    for (double& sample : entry.samples) {
      sample = amplitude * rng.normal();
    }
    message.entries.push_back(std::move(entry));
  }
  const net::CorrelationSetMessage decoded =
      net::decode_correlation_set(net::encode_correlation_set(message));
  std::vector<TrackedSignalState> signals;
  for (const net::CorrelationEntry& entry : decoded.entries) {
    TrackedSignalState signal;
    signal.set_id = entry.set_id;
    signal.omega = entry.omega;
    signal.beta = entry.beta;
    signal.anomalous = entry.anomalous != 0;
    signal.class_tag = entry.class_tag;
    signal.samples = entry.samples;
    signals.push_back(std::move(signal));
  }
  return signals;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Snapshot bytes one tracked signal adds to an otherwise empty session.
std::size_t signal_cost(const TrackedSignalState& signal) {
  SessionState with;
  with.tracker.tracked.push_back(signal);
  return encode_session(with).size() - encode_session(SessionState{}).size();
}

// set_id, omega, beta, anomalous, class_tag, sample count, encoding tag.
constexpr std::size_t kSignalFixedBytes = 8 + 8 + 8 + 1 + 1 + 8 + 1;

TEST(CheckpointSamples, WireDecodedSetsRoundTripAtTwoBytesPerSample) {
  SessionState state = empty_state();
  state.tracker.tracked = wire_decoded_signals();
  PendingCallCheckpoint pending;
  pending.correlation_set = wire_decoded_signals();
  state.pending = pending;
  const SessionState decoded = decode_session(encode_session(state));
  const auto expect_same = [](const std::vector<TrackedSignalState>& a,
                              const std::vector<TrackedSignalState>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].set_id, b[i].set_id);
      EXPECT_EQ(a[i].omega, b[i].omega);
      EXPECT_TRUE(bits_equal(a[i].samples, b[i].samples)) << "signal " << i;
    }
  };
  expect_same(state.tracker.tracked, decoded.tracker.tracked);
  ASSERT_TRUE(decoded.pending.has_value());
  expect_same(state.pending->correlation_set, decoded.pending->correlation_set);
  for (const TrackedSignalState& signal : state.tracker.tracked) {
    // The f32 scale is the only addition to the fixed fields.
    EXPECT_LE(signal_cost(signal),
              kSignalFixedBytes + 4 + 2 * signal.samples.size())
        << "set " << signal.set_id;
  }
}

TEST(CheckpointSamples, SamplesWithoutAnExactWireImageRoundTripAsF64) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double subnormal = std::numeric_limits<double>::denorm_min() * 3;
  std::vector<double> off_by_one_ulp = wire_decoded_signals()[0].samples;
  off_by_one_ulp[123] = std::nextafter(off_by_one_ulp[123], inf);
  const std::vector<std::pair<const char*, std::vector<double>>> cases = {
      {"negative zero", {1.0, -0.0, 2.0}},
      {"nan", {1.0, nan, 2.0}},
      {"+inf", {1.0, inf, 2.0}},
      {"-inf", {-inf, 1.0}},
      {"subnormal", {subnormal, subnormal}},
      {"subnormal among normals", {1.0, subnormal, -3.0}},
      {"huge", {1e300, -1.0}},
      {"all zero", {0.0, 0.0, 0.0, 0.0}},
      {"empty", {}},
      {"one sample off by one ulp", off_by_one_ulp},
  };
  for (const auto& [label, samples] : cases) {
    TrackedSignalState signal;
    signal.set_id = 77;
    signal.samples = samples;
    SessionState state = empty_state();
    state.tracker.tracked.push_back(signal);
    const SessionState decoded = decode_session(encode_session(state));
    ASSERT_EQ(decoded.tracker.tracked.size(), 1u) << label;
    EXPECT_TRUE(bits_equal(decoded.tracker.tracked[0].samples, samples))
        << label;
    EXPECT_EQ(signal_cost(signal), kSignalFixedBytes + 8 * samples.size())
        << label;
  }
}

// A payload that passes the CRC yet names an unknown sample encoding is
// rejected, not guessed at.
TEST(CheckpointSamples, UnknownSampleEncodingIsRejected) {
  SessionState state = empty_state();
  TrackedSignalState signal;
  signal.set_id = 0x1122334455667788u;
  signal.samples = {1.0, 2.0};
  state.tracker.tracked.push_back(signal);
  std::vector<std::uint8_t> bytes = encode_session(state);
  const std::uint8_t id_bytes[8] = {0x88, 0x77, 0x66, 0x55,
                                    0x44, 0x33, 0x22, 0x11};
  const auto at = std::search(bytes.begin(), bytes.end(), std::begin(id_bytes),
                              std::end(id_bytes));
  ASSERT_NE(at, bytes.end());
  const auto tag = static_cast<std::size_t>(at - bytes.begin()) +
                   kSignalFixedBytes - 1;
  ASSERT_EQ(bytes[tag], 0u);  // the f64 encoding
  bytes[tag] = 7;
  const std::size_t payload_end = bytes.size() - 4;
  const std::uint32_t crc = crc32(bytes.data() + 16, payload_end - 16);
  std::memcpy(bytes.data() + payload_end, &crc, sizeof(crc));
  try {
    decode_session(bytes);
    FAIL() << "unknown sample encoding accepted";
  } catch (const CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find("sample encoding"),
              std::string::npos);
  }
}

// ---- The append-only log (CheckpointLog). ----

/// A window's state for the log tests: fuzzed fixed fields around the
/// tracked set, so consecutive records share the set's sample runs.
SessionState log_state(std::uint64_t window,
                       const std::vector<TrackedSignalState>& tracked) {
  SessionState state = fuzz_state(1000 + window);
  state.next_window = window;
  state.tracker.tracked = tracked;
  return state;
}

std::uintmax_t log_size(const testing::TempDir& dir) {
  return std::filesystem::file_size(checkpoint_path(dir.path()));
}

void overwrite(const testing::TempDir& dir,
               const std::vector<std::uint8_t>& bytes, std::size_t length) {
  std::ofstream out(checkpoint_path(dir.path()),
                    std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(length));
}

void store_le(std::vector<std::uint8_t>& bytes, std::size_t at,
              std::uint64_t value, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

std::uint64_t load_le(const std::vector<std::uint8_t>& bytes, std::size_t at,
                      std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = width; i-- > 0;) {
    value = (value << 8) | bytes[at + i];
  }
  return value;
}

// Record framing: u64 payload size | u32 CRC of it | payload | u32 CRC.
constexpr std::size_t kRecordHeaderBytes = 12;

TEST(CheckpointLog, AppendsReferBackToTheRunsTheImageHolds) {
  testing::TempDir dir("ckpt_log_append");
  const std::vector<TrackedSignalState> tracked = wire_decoded_signals();
  CheckpointLog log(dir.path());
  log.publish(log_state(1, tracked));
  const std::uintmax_t image = log_size(dir);
  EXPECT_EQ(log.compactions(), 1u);
  EXPECT_EQ(log.bytes_written(), image);

  const SessionState second = log_state(2, tracked);
  log.publish(second);
  EXPECT_EQ(log.compactions(), 1u);
  const std::uintmax_t record = log_size(dir) - image;
  EXPECT_EQ(log.bytes_written(), image + record);
  // The six 1000-sample signals ride as 5-byte references, not 12 kB of
  // int16 images: the record is smaller than the same state's image by
  // more than those images.
  EXPECT_LT(record, encode_session(second).size() - 6 * 2000);
  const auto loaded = read_checkpoint(dir.path());
  ASSERT_TRUE(loaded.has_value());
  expect_state_eq(second, *loaded);
  for (std::size_t i = 0; i < tracked.size(); ++i) {
    EXPECT_TRUE(bits_equal(loaded->tracker.tracked[i].samples,
                           tracked[i].samples));
  }
  // An image followed by records is no longer a standalone image.
  EXPECT_THROW(decode_session(read_file(checkpoint_path(dir.path()))),
               CheckpointError);
}

// A record cut short by the end of the file — anywhere from its first
// header byte to its last trailer byte — is a torn append: the state
// before it stands.
TEST(CheckpointLog, TruncationInsideTheLastRecordReadsThePreviousState) {
  testing::TempDir dir("ckpt_log_torn");
  const std::vector<TrackedSignalState> tracked = wire_decoded_signals();
  CheckpointLog log(dir.path());
  log.publish(log_state(1, tracked));
  const SessionState second = log_state(2, tracked);
  log.publish(second);
  const std::uintmax_t second_end = log_size(dir);
  const SessionState third = log_state(3, tracked);
  log.publish(third);
  ASSERT_EQ(log.compactions(), 1u);
  const std::vector<std::uint8_t> bytes =
      read_file(checkpoint_path(dir.path()));
  for (std::size_t length = second_end; length < bytes.size(); ++length) {
    overwrite(dir, bytes, length);
    const auto loaded = read_checkpoint(dir.path());
    ASSERT_TRUE(loaded.has_value()) << "truncated to " << length;
    ASSERT_EQ(loaded->next_window, 2u) << "truncated to " << length;
  }
  overwrite(dir, bytes, second_end + 1);
  expect_state_eq(second, *read_checkpoint(dir.path()));
  overwrite(dir, bytes, bytes.size());
  expect_state_eq(third, *read_checkpoint(dir.path()));
}

// Every complete record — the final one included — is CRC-guarded in its
// header (so a flipped size cannot pass for a torn tail), its payload and
// its trailer.
TEST(CheckpointLog, BitFlipInAnyCompleteRecordFailsClosed) {
  testing::TempDir dir("ckpt_log_flip");
  const std::vector<TrackedSignalState> tracked = wire_decoded_signals();
  CheckpointLog log(dir.path());
  log.publish(log_state(1, tracked));
  const std::uintmax_t image = log_size(dir);
  log.publish(log_state(2, tracked));
  log.publish(log_state(3, tracked));
  const std::vector<std::uint8_t> bytes =
      read_file(checkpoint_path(dir.path()));
  for (std::size_t i = image; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    overwrite(dir, corrupt, corrupt.size());
    EXPECT_THROW(read_checkpoint(dir.path()), CheckpointError)
        << "flip at byte " << i;
  }
}

// A CRC-valid record that names a sample run the file does not hold is
// rejected, never resolved to some other run.
TEST(CheckpointLog, BackReferenceToAnUnknownRunFailsClosed) {
  testing::TempDir dir("ckpt_log_unknown_run");
  const std::vector<TrackedSignalState> tracked = wire_decoded_signals();
  CheckpointLog log(dir.path());
  log.publish(log_state(1, tracked));
  const std::size_t record = log_size(dir);
  log.publish(log_state(2, tracked));
  std::vector<std::uint8_t> bytes = read_file(checkpoint_path(dir.path()));

  // The first tracked signal's set id, then its sample tag and run index.
  const std::uint8_t id_bytes[8] = {0xe8, 0x03, 0, 0, 0, 0, 0, 0};  // 1000
  const auto at = std::search(bytes.begin() + static_cast<std::ptrdiff_t>(record),
                              bytes.end(), std::begin(id_bytes),
                              std::end(id_bytes));
  ASSERT_NE(at, bytes.end());
  const auto tag = static_cast<std::size_t>(at - bytes.begin()) +
                   kSignalFixedBytes - 1;
  ASSERT_EQ(bytes[tag], 2u);  // a back-reference
  store_le(bytes, tag + 1, 999, 4);
  const auto payload_size =
      static_cast<std::size_t>(load_le(bytes, record, 8));
  const std::size_t payload = record + kRecordHeaderBytes;
  store_le(bytes, payload + payload_size,
           crc32(bytes.data() + payload, payload_size), 4);
  overwrite(dir, bytes, bytes.size());
  try {
    read_checkpoint(dir.path());
    FAIL() << "back-reference to an unknown run accepted";
  } catch (const CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find("unknown sample run"),
              std::string::npos);
  }
}

// The append path: a crash before any byte or between the body and its
// commit trailer leaves the previous state; a crash after the fdatasync
// leaves the new one.  The same log then carries on, compacting over a
// torn tail.
TEST(CheckpointLog, CrashOnTheAppendPathKeepsOldOrNew) {
  for (const char* point : {"checkpoint_pre_write", "checkpoint_pre_rename",
                            "checkpoint_post_write"}) {
    testing::TempDir dir(std::string("ckpt_log_crash_append_") + point);
    const std::vector<TrackedSignalState> tracked = wire_decoded_signals();
    const SessionState first = log_state(1, tracked);
    const SessionState second = log_state(2, tracked);
    const bool committed = std::string(point) == "checkpoint_post_write";
    CheckpointLog log(dir.path());
    log.publish(first);
    CrashPointRegistry registry;
    {
      ScopedCrashSchedule guard(registry, {point, 1});
      EXPECT_THROW(log.publish(second, &registry), InjectedCrash) << point;
    }
    EXPECT_EQ(log.compactions(), 1u) << point;  // the crash hit an append
    const auto loaded = read_checkpoint(dir.path());
    ASSERT_TRUE(loaded.has_value()) << point;
    expect_state_eq(committed ? second : first, *loaded);

    const SessionState third = log_state(3, tracked);
    log.publish(third);
    EXPECT_EQ(log.compactions(), committed ? 1u : 2u) << point;
    expect_state_eq(third, *read_checkpoint(dir.path()));
  }
}

// The compaction path (here: a run's first publish over a log another run
// left behind) keeps the rename as its commit point.
TEST(CheckpointLog, CrashOnTheCompactionPathKeepsOldOrNew) {
  for (const char* point : {"checkpoint_pre_write", "checkpoint_pre_rename",
                            "checkpoint_post_write"}) {
    testing::TempDir dir(std::string("ckpt_log_crash_compact_") + point);
    const std::vector<TrackedSignalState> tracked = wire_decoded_signals();
    const SessionState left_behind = log_state(2, tracked);
    {
      CheckpointLog earlier(dir.path());
      earlier.publish(log_state(1, tracked));
      earlier.publish(left_behind);
    }
    const SessionState next = log_state(3, tracked);
    CheckpointLog log(dir.path());
    CrashPointRegistry registry;
    {
      ScopedCrashSchedule guard(registry, {point, 1});
      EXPECT_THROW(log.publish(next, &registry), InjectedCrash) << point;
    }
    const auto loaded = read_checkpoint(dir.path());
    ASSERT_TRUE(loaded.has_value()) << point;
    if (std::string(point) == "checkpoint_post_write") {
      expect_state_eq(next, *loaded);
      EXPECT_NO_THROW(
          decode_session(read_file(checkpoint_path(dir.path()))));
    } else {
      expect_state_eq(left_behind, *loaded);
    }
  }
}

// A resumed run reads the state before a torn tail, and its first publish
// replaces the whole file with one image instead of appending after the
// torn bytes.
TEST(CheckpointLog, ResumedRunThatFindsATornTailWritesAFreshImage) {
  testing::TempDir dir("ckpt_log_resume_torn");
  const std::vector<TrackedSignalState> tracked = wire_decoded_signals();
  const SessionState first = log_state(1, tracked);
  {
    CheckpointLog crashed(dir.path());
    crashed.publish(first);
    CrashPointRegistry registry;
    ScopedCrashSchedule guard(registry, {"checkpoint_pre_rename", 1});
    EXPECT_THROW(crashed.publish(log_state(2, tracked), &registry),
                 InjectedCrash);
  }
  const auto resumed_from = read_checkpoint(dir.path());
  ASSERT_TRUE(resumed_from.has_value());
  expect_state_eq(first, *resumed_from);

  const SessionState next = log_state(2, tracked);
  CheckpointLog resumed(dir.path());
  resumed.publish(next);
  EXPECT_EQ(resumed.compactions(), 1u);
  EXPECT_EQ(log_size(dir), resumed.bytes_written());
  expect_state_eq(next,
                  decode_session(read_file(checkpoint_path(dir.path()))));
}

// Over a faulted 600-window trajectory — sets reloaded after cloud calls,
// failed calls, signals removed one by one — the file never exceeds two
// images plus the record just appended, every state reads back, and
// close() leaves one image of the last state.
TEST(CheckpointLog, FileNeverExceedsTwoImagesPlusOneRecord) {
  testing::TempDir dir("ckpt_log_bound");
  Rng rng(600);
  std::vector<TrackedSignalState> tracked = wire_decoded_signals(1, 12);
  std::optional<PendingCallCheckpoint> pending;
  std::uint64_t sets = 1;
  std::uint64_t delivery = 0;
  CheckpointLog log(dir.path());
  std::uintmax_t image = 0;
  std::uintmax_t size = 0;
  SessionState state;
  for (std::uint64_t w = 1; w <= 600; ++w) {
    if (pending && w == delivery) {
      if (pending->succeeded) {
        tracked = pending->correlation_set;
      }
      pending.reset();
    } else if (!pending && rng.bernoulli(0.2)) {
      pending.emplace();
      pending->succeeded = rng.bernoulli(0.8);
      if (pending->succeeded) {
        pending->correlation_set = wire_decoded_signals(++sets, 12);
      }
      delivery = w + 1 + rng.uniform_index(3);
    }
    if (tracked.size() > 1 && rng.bernoulli(0.3)) {
      tracked.pop_back();
    }
    state = log_state(w, tracked);
    state.pending = pending;
    const std::uint64_t compactions = log.compactions();
    log.publish(state);
    const std::uintmax_t previous = size;
    size = log_size(dir);
    if (log.compactions() != compactions) {
      image = size;
    } else {
      ASSERT_LE(size, 2 * image + (size - previous)) << "window " << w;
    }
    if (w % 50 == 0) {
      const auto loaded = read_checkpoint(dir.path());
      ASSERT_TRUE(loaded.has_value());
      expect_state_eq(state, *loaded);
    }
  }
  EXPECT_GT(log.compactions(), 1u);
  EXPECT_LT(log.compactions(), 300u);
  log.close();
  const std::vector<std::uint8_t> bytes =
      read_file(checkpoint_path(dir.path()));
  EXPECT_EQ(bytes, encode_session(state));
}

// Every value a restore function would refuse is refused while the image
// is decoded, so a resume either restores the whole state or none of it.
TEST(Checkpoint, DecodeRejectsStateTheRestoresWouldRefuse) {
  const SessionState valid = fuzz_state(53);
  ASSERT_NO_THROW(decode_session(encode_session(valid)));
  const std::vector<std::pair<const char*, void (*)(SessionState&)>> cases = {
      {"shed level past kMaxShedLevel",
       [](SessionState& s) { s.degrade.shed_level = kMaxShedLevel + 1; }},
      {"breaker ring of another size",
       [](SessionState& s) { s.breaker.recent_failure.push_back(0); }},
      {"breaker cursor outside its ring",
       [](SessionState& s) { s.breaker.recent_next = kBreakerWindow; }},
      {"breaker count past its ring",
       [](SessionState& s) { s.breaker.recent_count = kBreakerWindow + 1; }},
      {"SLO ring of another size",
       [](SessionState& s) { s.edge_slo.recent_miss.pop_back(); }},
      {"SLO cursor outside its ring",
       [](SessionState& s) {
         s.initial_slo.recent_next = s.initial_slo.recent_miss.size();
       }},
      {"SLO misses past its count",
       [](SessionState& s) {
         s.edge_slo.recent_misses = s.edge_slo.recent_count + 1;
       }},
      {"P_A outside [0, 1]",
       [](SessionState& s) { s.predictor.history.push_back(1.5); }},
      {"FIR cursor past its history",
       [](SessionState& s) { s.fir.history_pos = s.fir.history.size(); }},
  };
  for (const auto& [what, mutate] : cases) {
    SessionState state = valid;
    mutate(state);
    EXPECT_THROW(decode_session(encode_session(state)), CheckpointError)
        << what;
  }
}

}  // namespace
}  // namespace emap::robust
