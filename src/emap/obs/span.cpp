#include "emap/obs/span.hpp"

#include <utility>

#include "emap/common/error.hpp"
#include "emap/obs/metrics.hpp"

namespace emap::obs {
namespace {

/// Per-thread stack of open RAII spans, keyed by tracer so independent
/// tracers on one thread nest independently.
thread_local std::vector<std::pair<const Tracer*, std::uint64_t>>
    g_active_spans;

std::uint64_t current_parent(const Tracer* tracer) {
  for (auto it = g_active_spans.rbegin(); it != g_active_spans.rend(); ++it) {
    if (it->first == tracer) {
      return it->second;
    }
  }
  return 0;
}

void pop_active(const Tracer* tracer, std::uint64_t id) {
  for (auto it = g_active_spans.rbegin(); it != g_active_spans.rend(); ++it) {
    if (it->first == tracer && it->second == id) {
      g_active_spans.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer::Span::Span(Tracer* tracer, std::string name, std::string category)
    : tracer_(tracer), started_(std::chrono::steady_clock::now()) {
  record_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  record_.parent = current_parent(tracer_);
  record_.name = std::move(name);
  record_.category = std::move(category);
  record_.wall_start_us = tracer_->wall_now_us();
  g_active_spans.emplace_back(tracer_, record_.id);
}

Tracer::Span::Span(Span&& other) noexcept
    : tracer_(std::exchange(other.tracer_, nullptr)),
      record_(std::move(other.record_)),
      started_(other.started_) {}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) {
    return;  // moved-from
  }
  record_.wall_dur_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - started_)
          .count();
  pop_active(tracer_, record_.id);
  tracer_->append(std::move(record_));
}

void Tracer::Span::set_sim(double start_sec, double end_sec) {
  require(end_sec >= start_sec, "Span::set_sim: end before start");
  record_.sim_start_sec = start_sec;
  record_.sim_dur_sec = end_sec - start_sec;
}

Tracer::Span Tracer::scope(std::string name, std::string category) {
  return Span(this, std::move(name), std::move(category));
}

std::uint64_t Tracer::record_sim(std::string name, std::string category,
                                 double sim_start_sec, double sim_end_sec,
                                 std::uint64_t parent,
                                 std::uint64_t trace_id) {
  require(sim_end_sec >= sim_start_sec, "Tracer::record_sim: end before start");
  SpanRecord record;
  record.parent = parent;
  record.trace_id = trace_id;
  record.name = std::move(name);
  record.category = std::move(category);
  record.wall_start_us = wall_now_us();
  record.sim_start_sec = sim_start_sec;
  record.sim_dur_sec = sim_end_sec - sim_start_sec;
  return append(std::move(record));
}

std::uint64_t Tracer::append(SpanRecord record) {
  if (record.id == 0) {
    record.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  const std::uint64_t id = record.id;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(record));
  return id;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

double Tracer::wall_now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

ScopedTimer::ScopedTimer(Histogram& sink)
    : sink_(sink), started_(std::chrono::steady_clock::now()) {}

double ScopedTimer::elapsed_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started_)
      .count();
}

ScopedTimer::~ScopedTimer() { sink_.observe(elapsed_seconds()); }

}  // namespace emap::obs
