#include "emap/net/fault.hpp"

#include "emap/common/error.hpp"
#include "emap/obs/metrics.hpp"

namespace emap::net {
namespace {

void validate_spec(const FaultSpec& spec, const char* which) {
  const double probs[] = {spec.drop, spec.corrupt, spec.duplicate,
                          spec.reorder, spec.delay};
  for (double p : probs) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw InvalidArgument(std::string("FaultSpec(") + which +
                            "): probabilities must be in [0, 1]");
    }
  }
  if (!(spec.delay_min_sec >= 0.0 &&
        spec.delay_max_sec >= spec.delay_min_sec)) {
    throw InvalidArgument(std::string("FaultSpec(") + which +
                          "): need 0 <= delay_min_sec <= delay_max_sec");
  }
}

}  // namespace

const char* direction_name(Direction direction) {
  return direction == Direction::kUpload ? "up" : "down";
}

void FaultOptions::validate() const {
  validate_spec(up, "up");
  validate_spec(down, "down");
}

FaultInjector::FaultInjector(FaultOptions options)
    : options_(options),
      up_(options.up, Rng(options.seed).fork(1)),
      down_(options.down, Rng(options.seed).fork(2)) {
  options_.validate();
}

FaultInjector::DirectionState& FaultInjector::state(Direction direction) {
  return direction == Direction::kUpload ? up_ : down_;
}

const FaultCounts& FaultInjector::counts(Direction direction) const {
  return direction == Direction::kUpload ? up_.counts : down_.counts;
}

FaultPlan FaultInjector::apply(Direction direction,
                               std::span<std::uint8_t> bytes) {
  DirectionState& s = state(direction);
  ++s.counts.messages;

  // Fixed draw schedule: five Bernoulli trials plus one uniform per
  // message, consumed whether or not each fault fires, so the decision for
  // message N is a pure function of (seed, direction, N).
  FaultPlan plan;
  plan.dropped = s.rng.bernoulli(s.spec.drop);
  plan.corrupted = s.rng.bernoulli(s.spec.corrupt);
  plan.duplicated = s.rng.bernoulli(s.spec.duplicate);
  plan.reordered = s.rng.bernoulli(s.spec.reorder);
  const bool delayed = s.rng.bernoulli(s.spec.delay);
  const double delay_draw =
      s.spec.delay_min_sec +
      (s.spec.delay_max_sec - s.spec.delay_min_sec) * s.rng.uniform();
  s.draws += 6;

  if (plan.dropped) {
    // A dropped message can't also be corrupted/duplicated/delayed in any
    // observable way.
    plan.corrupted = false;
    plan.duplicated = false;
    plan.reordered = false;
  } else {
    if (delayed) {
      plan.extra_delay_sec += delay_draw;
    }
    if (plan.reordered) {
      // Reordering in a one-outstanding-call protocol is observable as the
      // message being overtaken, i.e. arriving late.
      plan.extra_delay_sec += delay_draw + s.spec.delay_max_sec;
    }
    if (plan.corrupted) {
      if (bytes.empty()) {
        // No encoded payload to damage (direct-path runs): an unreadable
        // message is indistinguishable from a lost one.
        plan.corrupted = false;
        plan.dropped = true;
      } else {
        for (std::size_t i = 0; i < kCorruptBits; ++i) {
          const std::uint64_t at = s.rng.uniform_index(bytes.size());
          const std::uint64_t bit = s.rng.uniform_index(8);
          bytes[at] ^= static_cast<std::uint8_t>(1u << bit);
          s.draws += 2;
        }
      }
    }
  }

  if (plan.dropped) {
    ++s.counts.dropped;
    if (s.metrics.dropped != nullptr) s.metrics.dropped->increment();
  }
  if (plan.corrupted) {
    ++s.counts.corrupted;
    if (s.metrics.corrupted != nullptr) s.metrics.corrupted->increment();
  }
  if (plan.duplicated) {
    ++s.counts.duplicated;
    if (s.metrics.duplicated != nullptr) s.metrics.duplicated->increment();
  }
  if (plan.reordered) {
    ++s.counts.reordered;
    if (s.metrics.reordered != nullptr) s.metrics.reordered->increment();
  }
  if (!plan.dropped && (delayed || plan.reordered)) {
    ++s.counts.delayed;
    if (s.metrics.delayed != nullptr) s.metrics.delayed->increment();
    if (s.metrics.delay_seconds != nullptr) {
      s.metrics.delay_seconds->observe(plan.extra_delay_sec);
    }
  }
  return plan;
}

std::uint64_t FaultInjector::draws(Direction direction) const {
  return direction == Direction::kUpload ? up_.draws : down_.draws;
}

FaultInjectorState FaultInjector::save() const {
  FaultInjectorState state;
  state.up_rng = up_.rng.save();
  state.down_rng = down_.rng.save();
  state.up_counts = up_.counts;
  state.down_counts = down_.counts;
  state.up_draws = up_.draws;
  state.down_draws = down_.draws;
  return state;
}

void FaultInjector::restore(const FaultInjectorState& state) {
  up_.rng.restore(state.up_rng);
  down_.rng.restore(state.down_rng);
  up_.counts = state.up_counts;
  down_.counts = state.down_counts;
  up_.draws = state.up_draws;
  down_.draws = state.down_draws;
}

void FaultInjector::set_metrics(obs::MetricsRegistry* registry) {
  for (DirectionState* s : {&up_, &down_}) {
    if (registry == nullptr) {
      s->metrics = {};
      continue;
    }
    const char* dir =
        s == &up_ ? direction_name(Direction::kUpload)
                  : direction_name(Direction::kDownload);
    auto fault_counter = [registry, dir](const char* kind) {
      return &registry->counter(
          "emap_net_faults_total", {{"direction", dir}, {"kind", kind}},
          "Faults injected into the edge-cloud link per direction and kind");
    };
    s->metrics.dropped = fault_counter("drop");
    s->metrics.corrupted = fault_counter("corrupt");
    s->metrics.duplicated = fault_counter("duplicate");
    s->metrics.reordered = fault_counter("reorder");
    s->metrics.delayed = fault_counter("delay");
    s->metrics.delay_seconds = &registry->histogram(
        "emap_net_fault_delay_seconds", {{"direction", dir}},
        obs::Histogram::default_latency_bounds(),
        "Extra in-flight delay added by delay/reorder faults");
  }
}

}  // namespace emap::net
