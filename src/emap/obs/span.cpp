#include "emap/obs/span.hpp"

#include <utility>

#include "emap/common/error.hpp"
#include "emap/obs/metrics.hpp"

namespace emap::obs {

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
  record.sim_start_sec = sim_start_sec;
  record.sim_dur_sec = sim_end_sec - sim_start_sec;
  std::lock_guard<std::mutex> lock(mutex_);
  record.id = next_id_++;
  spans_.push_back(std::move(record));
  return spans_.back().id;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
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
