#include "emap/robust/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "emap/common/crc32.hpp"
#include "emap/common/file_io.hpp"
#include "emap/mdb/codec.hpp"

namespace emap::robust {
namespace {

// Image framing: magic | u32 version | u64 payload_size | payload | u32 crc.
constexpr std::uint8_t kMagic[4] = {'E', 'M', 'C', 'K'};
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kTrailerBytes = 4;
// Record framing: u64 payload_size | u32 crc(size) | payload | u32 crc.
constexpr std::size_t kRecordHeaderBytes = 8 + 4;

// Sample encodings, the tag after a signal's sample count (see the framing
// in checkpoint.hpp).
constexpr std::uint8_t kSamplesF64 = 0;
constexpr std::uint8_t kSamplesInt16 = 1;
constexpr std::uint8_t kSamplesRef = 2;

[[noreturn]] void reject(const std::string& what) {
  throw CheckpointError("checkpoint: " + what);
}

// A corrupt (but CRC-colliding) or hand-crafted payload must not drive a
// multi-gigabyte allocation: every element count is bounded by the bytes
// that could actually hold it.
void check_count(std::uint64_t count, std::size_t element_bytes,
                 std::size_t total_bytes) {
  if (element_bytes > 0 &&
      count > static_cast<std::uint64_t>(total_bytes) / element_bytes) {
    reject("element count exceeds payload size");
  }
}

void store_u32(std::uint8_t* at, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    at[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

void store_u64(std::uint8_t* at, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    at[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

void encode_rng(mdb::Encoder& enc, const RngState& rng) {
  for (const std::uint64_t word : rng.state) {
    enc.write_u64(word);
  }
  enc.write_u64(rng.seed);
  enc.write_f64(rng.spare_normal);
  enc.write_u8(rng.has_spare_normal ? 1 : 0);
}

RngState decode_rng(mdb::Decoder& dec) {
  RngState rng;
  for (std::uint64_t& word : rng.state) {
    word = dec.read_u64();
  }
  rng.seed = dec.read_u64();
  rng.spare_normal = dec.read_f64();
  rng.has_spare_normal = dec.read_u8() != 0;
  return rng;
}

void encode_fault_counts(mdb::Encoder& enc, const net::FaultCounts& counts) {
  enc.write_u64(counts.messages);
  enc.write_u64(counts.dropped);
  enc.write_u64(counts.corrupted);
  enc.write_u64(counts.duplicated);
  enc.write_u64(counts.reordered);
  enc.write_u64(counts.delayed);
}

net::FaultCounts decode_fault_counts(mdb::Decoder& dec) {
  net::FaultCounts counts;
  counts.messages = dec.read_u64();
  counts.dropped = dec.read_u64();
  counts.corrupted = dec.read_u64();
  counts.duplicated = dec.read_u64();
  counts.reordered = dec.read_u64();
  counts.delayed = dec.read_u64();
  return counts;
}

// Lays out the little-endian int16 image of `samples` in `image` and
// returns its scale when int16 * scale, the arithmetic of net::dequantize,
// reproduces every sample bit for bit; nullopt otherwise (non-finite,
// -0.0, all-zero, or samples that never were a wire image).
std::optional<float> wire_image(const std::vector<double>& samples,
                                std::vector<std::uint8_t>& image) {
  double peak = 0.0;
  for (const double x : samples) {
    if (!std::isfinite(x)) {
      return std::nullopt;
    }
    peak = std::max(peak, std::abs(x));
  }
  const float scale = static_cast<float>(peak / 32767.0);
  if (!(scale > 0.0f) || !std::isfinite(scale)) {
    return std::nullopt;
  }
  const double step = scale;
  image.resize(2 * samples.size());
  std::uint8_t* out = image.data();
  for (const double x : samples) {
    const double q = x / step;
    if (!(q >= -32768.0 && q <= 32767.0)) {
      return std::nullopt;
    }
    const auto value = static_cast<std::int16_t>(q);
    if (std::bit_cast<std::uint64_t>(static_cast<double>(value) * step) !=
        std::bit_cast<std::uint64_t>(x)) {
      return std::nullopt;
    }
    const auto raw = static_cast<std::uint16_t>(value);
    *out++ = static_cast<std::uint8_t>(raw & 0xffu);
    *out++ = static_cast<std::uint8_t>(raw >> 8);
  }
  return scale;
}

// One inline sample run as the file stores it: the encoding tag, the
// int16 scale, and the little-endian sample bytes (i16[n] or f64[n]).
struct StoredRun {
  std::uint8_t encoding = kSamplesF64;
  float scale = 0.0f;
  std::vector<std::uint8_t> bytes;

  std::size_t size() const { return bytes.size() / width(); }
  std::size_t width() const { return encoding == kSamplesInt16 ? 2 : 8; }

  // Sample i's bits as the decoder yields them.
  std::uint64_t bits(std::size_t i) const {
    if (encoding == kSamplesInt16) {
      return int16_bits(i);
    }
    const std::uint8_t* at = bytes.data() + 8 * i;
    std::uint64_t word = 0;
    for (int b = 7; b >= 0; --b) {
      word = (word << 8) | at[b];
    }
    return word;
  }

  std::vector<double> samples() const {
    std::vector<double> out(size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::bit_cast<double>(bits(i));
    }
    return out;
  }

  // Whether the run decodes to exactly `samples`, bit for bit (one pass
  // without early exit, which the compiler vectorizes).
  bool holds(const std::vector<double>& samples) const {
    if (size() != samples.size()) {
      return false;
    }
    std::uint64_t differ = 0;
    if (encoding == kSamplesInt16) {
      for (std::size_t i = 0; i < samples.size(); ++i) {
        differ |= int16_bits(i) ^ std::bit_cast<std::uint64_t>(samples[i]);
      }
    } else {
      for (std::size_t i = 0; i < samples.size(); ++i) {
        differ |= bits(i) ^ std::bit_cast<std::uint64_t>(samples[i]);
      }
    }
    return differ == 0;
  }

  std::uint64_t int16_bits(std::size_t i) const {
    const auto raw =
        static_cast<std::uint16_t>(bytes[2 * i] | (bytes[2 * i + 1] << 8));
    return std::bit_cast<std::uint64_t>(
        static_cast<double>(static_cast<std::int16_t>(raw)) *
        static_cast<double>(scale));
  }
};

// The stored form of `samples`: the int16 wire image when it is exact.
StoredRun store_run(const std::vector<double>& samples) {
  StoredRun run;
  if (const std::optional<float> scale = wire_image(samples, run.bytes)) {
    run.encoding = kSamplesInt16;
    run.scale = *scale;
    return run;
  }
  run.bytes.resize(8 * samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto bits = std::bit_cast<std::uint64_t>(samples[i]);
    for (int b = 0; b < 8; ++b) {
      run.bytes[8 * i + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(bits >> (8 * b));
    }
  }
  return run;
}

// The inline sample runs of one file since its image, in file order, kept
// at their stored size.  The writer looks a signal's samples up here to
// refer back instead of storing them again; the reader resolves
// back-references against it.
class SampleRuns {
 public:
  /// A stored run that decodes to exactly `samples`, with its index.
  std::optional<std::uint32_t> find(const std::vector<double>& samples) const {
    const auto [first, last] = by_key_.equal_range(key(samples));
    for (auto it = first; it != last; ++it) {
      if (runs_[it->second].holds(samples)) {
        return it->second;
      }
    }
    return std::nullopt;
  }

  /// Records the next inline run, which decodes to `samples`.
  void add(StoredRun run, const std::vector<double>& samples) {
    by_key_.emplace(key(samples), static_cast<std::uint32_t>(runs_.size()));
    runs_.push_back(std::move(run));
  }

  /// The run a back-reference names; null when the file holds none.
  const StoredRun* at(std::uint64_t index) const {
    return index < runs_.size() ? &runs_[static_cast<std::size_t>(index)]
                                : nullptr;
  }

 private:
  // Length and three samples' bits: equal runs share a key, and different
  // signals practically never do, so a lookup compares about one run.
  static std::uint64_t key(const std::vector<double>& samples) {
    std::uint64_t key = samples.size() * 0x9e3779b97f4a7c15u;
    if (!samples.empty()) {
      key ^= std::bit_cast<std::uint64_t>(samples.front()) ^
             std::rotl(std::bit_cast<std::uint64_t>(
                           samples[samples.size() / 2]), 21) ^
             std::rotl(std::bit_cast<std::uint64_t>(samples.back()), 42);
    }
    return key;
  }

  std::vector<StoredRun> runs_;
  std::unordered_multimap<std::uint64_t, std::uint32_t> by_key_;
};

// How one payload encode treats sample runs.  Every inline run is added to
// `runs` (when set); with `refer`, a run already there is written as a
// back-reference instead (images never refer, so they decode on their
// own).
struct RunSink {
  SampleRuns* runs = nullptr;
  bool refer = false;
};

void encode_signals(mdb::Encoder& enc,
                    const std::vector<TrackedSignalState>& signals,
                    RunSink sink) {
  enc.write_u64(signals.size());
  for (const TrackedSignalState& signal : signals) {
    enc.write_u64(signal.set_id);
    enc.write_f64(signal.omega);
    enc.write_u64(signal.beta);
    enc.write_u8(signal.anomalous ? 1 : 0);
    enc.write_u8(signal.class_tag);
    enc.write_u64(signal.samples.size());
    if (sink.refer) {
      if (const std::optional<std::uint32_t> index =
              sink.runs->find(signal.samples)) {
        enc.write_u8(kSamplesRef);
        enc.write_u32(*index);
        continue;
      }
    }
    StoredRun run = store_run(signal.samples);
    enc.write_u8(run.encoding);
    if (run.encoding == kSamplesInt16) {
      enc.write_f32(run.scale);
    }
    enc.write_bytes(run.bytes);
    if (sink.runs != nullptr) {
      sink.runs->add(std::move(run), signal.samples);
    }
  }
}

// `runs` is null for a standalone image, where a back-reference is invalid.
std::vector<double> decode_samples(mdb::Decoder& dec, std::size_t total_bytes,
                                   SampleRuns* runs) {
  const std::uint64_t count = dec.read_u64();
  const std::uint8_t encoding = dec.read_u8();
  if (encoding == kSamplesRef) {
    if (runs == nullptr) {
      reject("sample back-reference outside a log");
    }
    const StoredRun* run = runs->at(dec.read_u32());
    if (run == nullptr) {
      reject("back-reference to an unknown sample run");
    }
    if (run->size() != count) {
      reject("back-referenced sample run has the wrong length");
    }
    return run->samples();
  }
  if (encoding != kSamplesF64 && encoding != kSamplesInt16) {
    reject("unknown sample encoding");
  }
  const std::size_t width = encoding == kSamplesInt16 ? 2 : 8;
  check_count(count, width, total_bytes);
  StoredRun run;
  run.encoding = encoding;
  if (encoding == kSamplesInt16) {
    run.scale = dec.read_f32();
    if (!(run.scale > 0.0f) || !std::isfinite(run.scale)) {
      reject("bad sample scale");
    }
  }
  run.bytes.resize(static_cast<std::size_t>(count) * width);
  for (std::uint8_t& byte : run.bytes) {
    byte = dec.read_u8();
  }
  std::vector<double> samples = run.samples();
  if (runs != nullptr) {
    runs->add(std::move(run), samples);
  }
  return samples;
}

std::vector<TrackedSignalState> decode_signals(mdb::Decoder& dec,
                                               std::size_t total_bytes,
                                               SampleRuns* runs) {
  const std::uint64_t count = dec.read_u64();
  // Each signal carries at least its fixed fields.
  check_count(count, 8 + 8 + 8 + 1 + 1 + 8 + 1, total_bytes);
  std::vector<TrackedSignalState> signals;
  signals.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    TrackedSignalState signal;
    signal.set_id = dec.read_u64();
    signal.omega = dec.read_f64();
    signal.beta = dec.read_u64();
    signal.anomalous = dec.read_u8() != 0;
    signal.class_tag = dec.read_u8();
    signal.samples = decode_samples(dec, total_bytes, runs);
    signals.push_back(std::move(signal));
  }
  return signals;
}

void encode_ring(mdb::Encoder& enc, const std::vector<std::uint8_t>& ring) {
  enc.write_u64(ring.size());
  for (const std::uint8_t flag : ring) {
    enc.write_u8(flag);
  }
}

std::vector<std::uint8_t> decode_ring(mdb::Decoder& dec,
                                      std::size_t total_bytes) {
  const std::uint64_t size = dec.read_u64();
  check_count(size, 1, total_bytes);
  std::vector<std::uint8_t> ring;
  ring.reserve(static_cast<std::size_t>(size));
  for (std::uint64_t i = 0; i < size; ++i) {
    ring.push_back(dec.read_u8());
  }
  return ring;
}

void encode_slo(mdb::Encoder& enc, const obs::SloMonitorState& slo) {
  enc.write_u64(slo.observations);
  enc.write_u64(slo.deadline_misses);
  enc.write_u64(slo.near_misses);
  enc.write_f64(slo.max_latency_sec);
  encode_ring(enc, slo.recent_miss);
  enc.write_u64(slo.recent_next);
  enc.write_u64(slo.recent_count);
  enc.write_u64(slo.recent_misses);
}

// `window` is the monitor's burn window: SloMonitor::restore_state accepts
// only a ring of that size with in-range cursors.
obs::SloMonitorState decode_slo(mdb::Decoder& dec, std::size_t total_bytes,
                                std::size_t window) {
  obs::SloMonitorState slo;
  slo.observations = dec.read_u64();
  slo.deadline_misses = dec.read_u64();
  slo.near_misses = dec.read_u64();
  slo.max_latency_sec = dec.read_f64();
  slo.recent_miss = decode_ring(dec, total_bytes);
  slo.recent_next = dec.read_u64();
  slo.recent_count = dec.read_u64();
  slo.recent_misses = dec.read_u64();
  if (slo.recent_miss.size() != window || slo.recent_next >= window ||
      slo.recent_count > window || slo.recent_misses > slo.recent_count) {
    reject("SLO ring does not match its burn window");
  }
  return slo;
}

void encode_degrade(mdb::Encoder& enc, const DegradeCheckpoint& degrade) {
  enc.write_u8(static_cast<std::uint8_t>(degrade.state));
  enc.write_u64(degrade.shed_level);
  enc.write_u64(degrade.bad_streak);
  enc.write_u64(degrade.clean_streak);
  enc.write_u64(degrade.miss_streak);
  enc.write_u64(degrade.critical_left);
  enc.write_u8(degrade.recovered_since_miss ? 1 : 0);
  enc.write_u8(static_cast<std::uint8_t>(degrade.summary.final_state));
  enc.write_u64(degrade.summary.transitions);
  enc.write_u64(degrade.summary.windows_nominal);
  enc.write_u64(degrade.summary.windows_degraded);
  enc.write_u64(degrade.summary.windows_critical);
  enc.write_u64(degrade.summary.windows_recovering);
  enc.write_u64(degrade.summary.max_shed_level);
  enc.write_u8(degrade.summary.entered_degraded ? 1 : 0);
}

DegradeState decode_degrade_state(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(DegradeState::kRecovering)) {
    reject("degrade state out of range");
  }
  return static_cast<DegradeState>(raw);
}

DegradeCheckpoint decode_degrade(mdb::Decoder& dec) {
  DegradeCheckpoint degrade;
  degrade.state = decode_degrade_state(dec.read_u8());
  degrade.shed_level = dec.read_u64();
  if (degrade.shed_level > kMaxShedLevel) {
    reject("degrade shed level out of range");
  }
  degrade.bad_streak = dec.read_u64();
  degrade.clean_streak = dec.read_u64();
  degrade.miss_streak = dec.read_u64();
  degrade.critical_left = dec.read_u64();
  degrade.recovered_since_miss = dec.read_u8() != 0;
  degrade.summary.final_state = decode_degrade_state(dec.read_u8());
  degrade.summary.transitions = dec.read_u64();
  degrade.summary.windows_nominal = dec.read_u64();
  degrade.summary.windows_degraded = dec.read_u64();
  degrade.summary.windows_critical = dec.read_u64();
  degrade.summary.windows_recovering = dec.read_u64();
  degrade.summary.max_shed_level = dec.read_u64();
  degrade.summary.entered_degraded = dec.read_u8() != 0;
  return degrade;
}

void encode_breaker(mdb::Encoder& enc, const BreakerCheckpoint& breaker) {
  enc.write_u8(static_cast<std::uint8_t>(breaker.state));
  enc.write_f64(breaker.open_until_sec);
  enc.write_u64(breaker.probe_successes);
  encode_ring(enc, breaker.recent_failure);
  enc.write_u64(breaker.recent_next);
  enc.write_u64(breaker.recent_count);
  enc.write_u8(static_cast<std::uint8_t>(breaker.summary.final_state));
  enc.write_u64(breaker.summary.opens);
  enc.write_u64(breaker.summary.rejected);
  enc.write_u64(breaker.summary.failures);
  enc.write_u64(breaker.summary.successes);
}

BreakerState decode_breaker_state(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(BreakerState::kHalfOpen)) {
    reject("breaker state out of range");
  }
  return static_cast<BreakerState>(raw);
}

BreakerCheckpoint decode_breaker(mdb::Decoder& dec,
                                 std::size_t total_bytes) {
  BreakerCheckpoint breaker;
  breaker.state = decode_breaker_state(dec.read_u8());
  breaker.open_until_sec = dec.read_f64();
  breaker.probe_successes = dec.read_u64();
  breaker.recent_failure = decode_ring(dec, total_bytes);
  breaker.recent_next = dec.read_u64();
  breaker.recent_count = dec.read_u64();
  if (breaker.recent_failure.size() != kBreakerWindow ||
      breaker.recent_next >= kBreakerWindow ||
      breaker.recent_count > kBreakerWindow) {
    reject("breaker ring does not match kBreakerWindow");
  }
  breaker.summary.final_state = decode_breaker_state(dec.read_u8());
  breaker.summary.opens = dec.read_u64();
  breaker.summary.rejected = dec.read_u64();
  breaker.summary.failures = dec.read_u64();
  breaker.summary.successes = dec.read_u64();
  return breaker;
}

void encode_injector(mdb::Encoder& enc,
                     const net::FaultInjectorState& injector) {
  encode_rng(enc, injector.up_rng);
  encode_rng(enc, injector.down_rng);
  encode_fault_counts(enc, injector.up_counts);
  encode_fault_counts(enc, injector.down_counts);
  enc.write_u64(injector.up_draws);
  enc.write_u64(injector.down_draws);
}

net::FaultInjectorState decode_injector(mdb::Decoder& dec) {
  net::FaultInjectorState injector;
  injector.up_rng = decode_rng(dec);
  injector.down_rng = decode_rng(dec);
  injector.up_counts = decode_fault_counts(dec);
  injector.down_counts = decode_fault_counts(dec);
  injector.up_draws = dec.read_u64();
  injector.down_draws = dec.read_u64();
  return injector;
}

void encode_pending_call(mdb::Encoder& enc,
                         const PendingCallCheckpoint& pending, RunSink sink) {
  enc.write_f64(pending.ready_at_sec);
  enc.write_f64(pending.delta_ec);
  enc.write_f64(pending.delta_cs);
  enc.write_f64(pending.delta_ce);
  enc.write_u32(pending.sequence);
  enc.write_u64(pending.attempts);
  enc.write_u64(pending.duplicates);
  enc.write_u8(pending.succeeded ? 1 : 0);
  enc.write_u64(pending.trace_id);
  enc.write_u64(pending.parent_span);
  encode_signals(enc, pending.correlation_set, sink);
}

PendingCallCheckpoint decode_pending_call(mdb::Decoder& dec,
                                          std::size_t total_bytes,
                                          SampleRuns* runs) {
  PendingCallCheckpoint pending;
  pending.ready_at_sec = dec.read_f64();
  pending.delta_ec = dec.read_f64();
  pending.delta_cs = dec.read_f64();
  pending.delta_ce = dec.read_f64();
  pending.sequence = dec.read_u32();
  pending.attempts = dec.read_u64();
  pending.duplicates = dec.read_u64();
  pending.succeeded = dec.read_u8() != 0;
  pending.trace_id = dec.read_u64();
  pending.parent_span = dec.read_u64();
  pending.correlation_set = decode_signals(dec, total_bytes, runs);
  return pending;
}

void encode_payload(mdb::Encoder& enc, const SessionState& state,
                    RunSink sink) {
  enc.write_string(state.config_fingerprint);
  enc.write_u32(state.input_fingerprint);
  enc.write_u64(state.next_window);
  enc.write_f64(state.last_pa);
  enc.write_u64(static_cast<std::uint64_t>(state.last_loaded_sequence));

  const RunCountersCheckpoint& c = state.counters;
  enc.write_u64(c.cloud_calls);
  enc.write_u64(c.failed_cloud_calls);
  enc.write_u64(c.retry_attempts);
  enc.write_u64(c.duplicates_discarded);
  enc.write_u8(c.degraded ? 1 : 0);
  enc.write_u8(c.first_round_trip_recorded ? 1 : 0);
  enc.write_f64(c.delta_ec_sec);
  enc.write_f64(c.delta_cs_sec);
  enc.write_f64(c.delta_ce_sec);
  enc.write_f64(c.delta_initial_sec);
  enc.write_f64(c.total_track_sec);
  enc.write_u64(c.track_steps);
  enc.write_f64(c.max_track_sec);
  enc.write_u64(c.critical_windows);
  enc.write_u64(c.shed_loads);
  enc.write_u64(c.deferred_flushes);
  enc.write_u64(c.watchdog_trips);
  enc.write_u64(c.quality.assessed);
  enc.write_u64(c.quality.good);
  enc.write_u64(c.quality.nan);
  enc.write_u64(c.quality.flatline);
  enc.write_u64(c.quality.saturated);
  enc.write_u64(c.quality.artifact);

  enc.write_u8(state.tracker.loaded ? 1 : 0);
  enc.write_u64(state.tracker.steps_since_load);
  encode_signals(enc, state.tracker.tracked, sink);

  enc.write_u64(state.predictor.history.size());
  for (const double p : state.predictor.history) {
    enc.write_f64(p);
  }
  enc.write_u8(state.predictor.alarmed ? 1 : 0);
  enc.write_f64(state.predictor.alarm_time_sec);
  enc.write_u64(state.predictor.consecutive);

  enc.write_u64(state.fir.history.size());
  for (const double sample : state.fir.history) {
    enc.write_f64(sample);
  }
  enc.write_u64(state.fir.history_pos);

  enc.write_u8(state.pending.has_value() ? 1 : 0);
  if (state.pending.has_value()) {
    encode_pending_call(enc, *state.pending, sink);
  }

  encode_degrade(enc, state.degrade);
  encode_breaker(enc, state.breaker);
  encode_slo(enc, state.edge_slo);
  encode_slo(enc, state.initial_slo);

  encode_injector(enc, state.injector);

}

SessionState decode_payload(mdb::Decoder& dec, std::size_t total_bytes,
                            SampleRuns* runs) {
  SessionState state;
  state.config_fingerprint = dec.read_string();
  state.input_fingerprint = dec.read_u32();
  state.next_window = dec.read_u64();
  state.last_pa = dec.read_f64();
  state.last_loaded_sequence = static_cast<std::int64_t>(dec.read_u64());

  RunCountersCheckpoint& c = state.counters;
  c.cloud_calls = dec.read_u64();
  c.failed_cloud_calls = dec.read_u64();
  c.retry_attempts = dec.read_u64();
  c.duplicates_discarded = dec.read_u64();
  c.degraded = dec.read_u8() != 0;
  c.first_round_trip_recorded = dec.read_u8() != 0;
  c.delta_ec_sec = dec.read_f64();
  c.delta_cs_sec = dec.read_f64();
  c.delta_ce_sec = dec.read_f64();
  c.delta_initial_sec = dec.read_f64();
  c.total_track_sec = dec.read_f64();
  c.track_steps = dec.read_u64();
  c.max_track_sec = dec.read_f64();
  c.critical_windows = dec.read_u64();
  c.shed_loads = dec.read_u64();
  c.deferred_flushes = dec.read_u64();
  c.watchdog_trips = dec.read_u64();
  c.quality.assessed = dec.read_u64();
  c.quality.good = dec.read_u64();
  c.quality.nan = dec.read_u64();
  c.quality.flatline = dec.read_u64();
  c.quality.saturated = dec.read_u64();
  c.quality.artifact = dec.read_u64();

  state.tracker.loaded = dec.read_u8() != 0;
  state.tracker.steps_since_load = dec.read_u64();
  state.tracker.tracked = decode_signals(dec, total_bytes, runs);

  const std::uint64_t history = dec.read_u64();
  check_count(history, 8, total_bytes);
  state.predictor.history.reserve(static_cast<std::size_t>(history));
  for (std::uint64_t i = 0; i < history; ++i) {
    const double pa = dec.read_f64();
    if (!(pa >= 0.0 && pa <= 1.0)) {
      reject("predictor P_A out of [0, 1]");
    }
    state.predictor.history.push_back(pa);
  }
  state.predictor.alarmed = dec.read_u8() != 0;
  state.predictor.alarm_time_sec = dec.read_f64();
  state.predictor.consecutive = dec.read_u64();

  const std::uint64_t taps = dec.read_u64();
  check_count(taps, 8, total_bytes);
  state.fir.history.reserve(static_cast<std::size_t>(taps));
  for (std::uint64_t i = 0; i < taps; ++i) {
    state.fir.history.push_back(dec.read_f64());
  }
  state.fir.history_pos = static_cast<std::size_t>(dec.read_u64());
  if (state.fir.history_pos >=
      std::max<std::size_t>(1, state.fir.history.size())) {
    reject("FIR history cursor out of range");
  }

  if (dec.read_u8() != 0) {
    state.pending = decode_pending_call(dec, total_bytes, runs);
  }

  state.degrade = decode_degrade(dec);
  state.breaker = decode_breaker(dec, total_bytes);
  state.edge_slo =
      decode_slo(dec, total_bytes, obs::edge_iteration_slo().burn_window);
  state.initial_slo =
      decode_slo(dec, total_bytes, obs::initial_response_slo().burn_window);

  state.injector = decode_injector(dec);

  return state;
}

// Payload capacity for the common case: the fixed fields plus every
// signal's int16 image, so the encoder does not reallocate as it grows.
std::size_t payload_size_hint(const SessionState& state) {
  std::size_t bytes = 4096 + 8 * (state.predictor.history.size() +
                                   state.fir.history.size());
  const auto add = [&bytes](const std::vector<TrackedSignalState>& signals) {
    for (const TrackedSignalState& signal : signals) {
      bytes += 64 + 2 * signal.samples.size();
    }
  };
  add(state.tracker.tracked);
  if (state.pending.has_value()) {
    add(state.pending->correlation_set);
  }
  return bytes;
}

// The image of `state` (see RunSink for `sink`).
std::vector<std::uint8_t> encode_image(const SessionState& state,
                                       RunSink sink) {
  mdb::Encoder enc;
  enc.reserve(kHeaderBytes + payload_size_hint(state) + kTrailerBytes);
  for (const std::uint8_t byte : kMagic) {
    enc.write_u8(byte);
  }
  enc.write_u32(kCheckpointVersion);
  enc.write_u64(0);  // payload size, patched below
  encode_payload(enc, state, sink);
  std::vector<std::uint8_t> out = enc.take();
  const std::size_t payload_size = out.size() - kHeaderBytes;
  store_u64(out.data() + 8, payload_size);
  const std::uint32_t crc = crc32(out.data() + kHeaderBytes, payload_size);
  out.resize(out.size() + kTrailerBytes);
  store_u32(out.data() + kHeaderBytes + payload_size, crc);
  return out;
}

// One log record of `state`: runs already in `runs` become references,
// new ones are stored inline and added.
std::vector<std::uint8_t> encode_record(const SessionState& state,
                                        SampleRuns& runs) {
  mdb::Encoder enc;
  enc.write_u64(0);  // payload size and its CRC, patched below
  enc.write_u32(0);
  encode_payload(enc, state, RunSink{&runs, true});
  std::vector<std::uint8_t> out = enc.take();
  const std::size_t payload_size = out.size() - kRecordHeaderBytes;
  store_u64(out.data(), payload_size);
  store_u32(out.data() + 8, crc32(out.data(), 8));
  const std::uint32_t crc =
      crc32(out.data() + kRecordHeaderBytes, payload_size);
  out.resize(out.size() + kTrailerBytes);
  store_u32(out.data() + kRecordHeaderBytes + payload_size, crc);
  return out;
}

// Checks the CRC trailer after the payload at [begin, begin + size) of
// `bytes`, then decodes it; the payload must account for every byte.
SessionState decode_framed(const std::vector<std::uint8_t>& bytes,
                           std::size_t begin, std::size_t size,
                           SampleRuns* runs) {
  mdb::Decoder dec(bytes);
  dec.seek(begin + size);
  if (dec.read_u32() != crc32(bytes.data() + begin, size)) {
    reject("CRC mismatch");
  }
  dec.seek(begin);
  SessionState state = decode_payload(dec, size, runs);
  if (dec.cursor() != begin + size) {
    reject("payload structure does not match declared size");
  }
  return state;
}

// Decodes the image at the head of `bytes`; returns its state and sets
// `end` to the offset just past it.
SessionState decode_image(const std::vector<std::uint8_t>& bytes,
                          SampleRuns* runs, std::size_t& end) {
  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    reject("truncated header");
  }
  mdb::Decoder dec(bytes);
  for (const std::uint8_t expected : kMagic) {
    if (dec.read_u8() != expected) {
      reject("bad magic");
    }
  }
  const std::uint32_t version = dec.read_u32();
  if (version != kCheckpointVersion) {
    reject("version skew (snapshot v" + std::to_string(version) +
           ", expected v" + std::to_string(kCheckpointVersion) + ")");
  }
  const std::uint64_t payload_size = dec.read_u64();
  if (payload_size > bytes.size() - kHeaderBytes - kTrailerBytes) {
    reject("payload size does not match file size");
  }
  const auto size = static_cast<std::size_t>(payload_size);
  end = kHeaderBytes + size + kTrailerBytes;
  return decode_framed(bytes, kHeaderBytes, size, runs);
}

// The last committed state of a log file: its image, then every complete
// record.  A final record cut short by the end of the file is a torn
// append and is dropped; anything else that fails validation rejects.
SessionState decode_log(const std::vector<std::uint8_t>& bytes) {
  SampleRuns runs;
  std::size_t at = 0;
  SessionState state = decode_image(bytes, &runs, at);
  while (bytes.size() - at >= kRecordHeaderBytes) {
    mdb::Decoder dec(bytes);
    dec.seek(at);
    const std::uint64_t payload_size = dec.read_u64();
    if (dec.read_u32() != crc32(bytes.data() + at, 8)) {
      reject("record header CRC mismatch");
    }
    const std::size_t left = bytes.size() - at - kRecordHeaderBytes;
    if (left < kTrailerBytes || payload_size > left - kTrailerBytes) {
      break;  // torn tail
    }
    const auto size = static_cast<std::size_t>(payload_size);
    state = decode_framed(bytes, at + kRecordHeaderBytes, size, &runs);
    at += kRecordHeaderBytes + size + kTrailerBytes;
  }
  return state;
}

// Runs `decode` with decoder truncation and framing errors surfacing as
// the typed checkpoint rejection the recovery layer switches on.
template <typename Decode>
SessionState rejecting(Decode decode) {
  try {
    return decode();
  } catch (const CheckpointError&) {
    throw;
  } catch (const CorruptData& error) {
    reject(error.what());
  }
}

[[noreturn]] void throw_io(const std::string& what,
                           const std::filesystem::path& path) {
  const int error = errno;  // before the message's allocations
  throw IoError("write_checkpoint: " + what + " " + path.string() + ": " +
                std::strerror(error));
}

// Owns a POSIX descriptor so every error path closes it.
class FileDescriptor {
 public:
  explicit FileDescriptor(int fd) : fd_(fd) {}
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
  FileDescriptor(FileDescriptor&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)) {}
  ~FileDescriptor() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  int get() const { return fd_; }
  /// Hands the descriptor over to the caller.
  int release() { return std::exchange(fd_, -1); }
  /// Closes now; false (errno set) when the close reported an error.
  bool close() { return ::close(std::exchange(fd_, -1)) == 0; }

 private:
  int fd_;
};

// Writes `size` bytes at the descriptor's position.
void write_all(int fd, const std::uint8_t* data, std::size_t size,
               const std::filesystem::path& path) {
  while (size > 0) {
    const ssize_t written = ::write(fd, data, size);
    if (written < 0 && errno == EINTR) {
      continue;
    }
    if (written <= 0) {
      throw_io("write failed for", path);
    }
    data += written;
    size -= static_cast<std::size_t>(written);
  }
}

// Makes a rename inside `dir` durable: the directory entry is metadata
// that fdatasync on the file does not cover.
void sync_directory(const std::filesystem::path& dir) {
  FileDescriptor handle(
      ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  if (handle.get() < 0) {
    throw_io("cannot open directory", dir);
  }
  if (::fsync(handle.get()) != 0) {
    throw_io("fsync failed for directory", dir);
  }
}

// Publishes `image` as the whole snapshot file of `dir`: temp write +
// fdatasync, rename over the final name (the commit point — a crash on
// either side leaves a complete file, old or new), directory fsync so the
// new name survives a power loss too.  Returns the new file's descriptor,
// still open and positioned at its end.
FileDescriptor publish_image(const std::filesystem::path& dir,
                             const std::vector<std::uint8_t>& image,
                             CrashPointRegistry* crashpoints) {
  const std::filesystem::path final_path = checkpoint_path(dir);
  const std::filesystem::path temp_path = final_path.string() + ".tmp";
  EMAP_CRASH_POINT(crashpoints, "checkpoint_pre_write");
  FileDescriptor file(::open(temp_path.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
  if (file.get() < 0) {
    throw_io("cannot open", temp_path);
  }
  write_all(file.get(), image.data(), image.size(), temp_path);
  if (::fdatasync(file.get()) != 0) {
    throw_io("fdatasync failed for", temp_path);
  }
  EMAP_CRASH_POINT(crashpoints, "checkpoint_pre_rename");
  std::error_code rename_error;
  std::filesystem::rename(temp_path, final_path, rename_error);
  if (rename_error) {
    throw IoError("write_checkpoint: rename failed for " +
                  final_path.string() + ": " + rename_error.message());
  }
  sync_directory(dir);
  return file;
}

}  // namespace

std::vector<std::uint8_t> encode_session(const SessionState& state) {
  return encode_image(state, RunSink{});
}

SessionState decode_session(const std::vector<std::uint8_t>& bytes) {
  return rejecting([&bytes] {
    std::size_t end = 0;
    SessionState state = decode_image(bytes, nullptr, end);
    if (end != bytes.size()) {
      reject("payload size does not match file size");
    }
    return state;
  });
}

std::filesystem::path checkpoint_path(const std::filesystem::path& dir) {
  return dir / "session.ckpt";
}

void write_checkpoint(const std::filesystem::path& dir,
                      const SessionState& state,
                      CrashPointRegistry* crashpoints) {
  std::filesystem::create_directories(dir);
  FileDescriptor file = publish_image(dir, encode_session(state), crashpoints);
  if (!file.close()) {
    throw_io("close failed for", checkpoint_path(dir));
  }
  EMAP_CRASH_POINT(crashpoints, "checkpoint_post_write");
}

std::optional<SessionState> read_checkpoint(
    const std::filesystem::path& dir) {
  const std::filesystem::path path = checkpoint_path(dir);
  // Only "not found" means a fresh session; any other failure to look
  // (ENAMETOOLONG, EACCES, ...) must not pass for one.
  std::error_code exists_error;
  const bool exists = std::filesystem::exists(path, exists_error);
  if (exists_error) {
    throw IoError("read_checkpoint: cannot stat " + path.string() + ": " +
                  exists_error.message());
  }
  if (!exists) {
    return std::nullopt;
  }
  const std::vector<std::uint8_t> bytes = read_file(path);
  return rejecting([&bytes] { return decode_log(bytes); });
}

class CheckpointLog::Runs : public SampleRuns {};

CheckpointLog::CheckpointLog(std::filesystem::path dir)
    : dir_(std::move(dir)) {}

CheckpointLog::~CheckpointLog() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void CheckpointLog::publish(SessionState state,
                            CrashPointRegistry* crashpoints) {
  if (needs_image_ || appended_bytes_ > image_bytes_) {
    bytes_written_ += write_image(state, crashpoints);
    ++compactions_;
  } else {
    append(state, crashpoints);
  }
  last_ = std::move(state);
  EMAP_CRASH_POINT(crashpoints, "checkpoint_post_write");
}

void CheckpointLog::close() {
  if (fd_ < 0) {
    return;
  }
  if (needs_image_ || appended_bytes_ > 0) {
    write_image(*last_, nullptr);
  }
  runs_.reset();
  last_.reset();
  ::close(std::exchange(fd_, -1));
  needs_image_ = true;
}

std::size_t CheckpointLog::write_image(const SessionState& state,
                                       CrashPointRegistry* crashpoints) {
  needs_image_ = true;
  std::filesystem::create_directories(dir_);
  runs_ = std::make_unique<Runs>();  // frees the old image's runs
  const std::vector<std::uint8_t> image =
      encode_image(state, RunSink{runs_.get(), false});
  FileDescriptor file = publish_image(dir_, image, crashpoints);
  if (fd_ >= 0) {
    ::close(fd_);
  }
  fd_ = file.release();
  image_bytes_ = image.size();
  appended_bytes_ = 0;
  needs_image_ = false;
  return image.size();
}

void CheckpointLog::append(const SessionState& state,
                           CrashPointRegistry* crashpoints) {
  // Until the trailer is durable, the retained runs may name runs the file
  // does not hold.
  needs_image_ = true;
  const std::vector<std::uint8_t> record = encode_record(state, *runs_);
  const std::filesystem::path path = checkpoint_path(dir_);
  const std::size_t body = record.size() - kTrailerBytes;
  EMAP_CRASH_POINT(crashpoints, "checkpoint_pre_write");
  write_all(fd_, record.data(), body, path);
  // The trailer is the commit point: without it the record is a torn tail
  // and the previous state stands.
  EMAP_CRASH_POINT(crashpoints, "checkpoint_pre_rename");
  write_all(fd_, record.data() + body, kTrailerBytes, path);
  if (::fdatasync(fd_) != 0) {
    throw_io("fdatasync failed for", path);
  }
  appended_bytes_ += record.size();
  bytes_written_ += record.size();
  needs_image_ = false;
}

}  // namespace emap::robust
