#include "emap/robust/supervisor.hpp"

#include <chrono>
#include <exception>

#include "emap/common/error.hpp"

namespace emap::robust {

void SupervisorOptions::validate() const {
  require(poll_interval_sec > 0.0,
          "SupervisorOptions: poll_interval_sec must be > 0");
  require(stall_timeout_sec > poll_interval_sec,
          "SupervisorOptions: stall_timeout_sec must exceed the poll "
          "interval");
  require(max_restarts >= 1, "SupervisorOptions: max_restarts must be >= 1");
}

StageSupervisor::StageSupervisor(SupervisorOptions options,
                                 obs::MetricsRegistry* registry)
    : options_(options), registry_(registry) {
  options_.validate();
}

StageSupervisor::~StageSupervisor() {
  request_abort();
  join_all();
}

void StageSupervisor::set_failure_handler(
    std::function<void(const std::string&)> handler) {
  failure_handler_ = std::move(handler);
}

void StageSupervisor::spawn(const std::string& name, StageBody body) {
  auto stage = std::make_unique<Stage>();
  stage->name = name;
  stage->body = std::move(body);
  stage->last_change = std::chrono::steady_clock::now();
  if (registry_ != nullptr) {
    stage->stall_metric = &registry_->counter(
        "emap_stage_stalls_total", {{"stage", name}},
        "Stall verdicts by the stage supervisor (no heartbeat while busy)");
    stage->restart_metric = &registry_->counter(
        "emap_stage_restarts_total", {{"stage", name}},
        "Stage bodies restarted after a stall or crash");
  }
  Stage* raw = stage.get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stages_.push_back(std::move(stage));
    if (!monitor_.joinable()) {
      monitor_ = std::thread([this] { monitor_loop(); });
    }
  }
  raw->thread = std::thread([this, raw] { run_stage(*raw); });
}

void StageSupervisor::run_stage(Stage& stage) {
  for (;;) {
    bool crashed = false;
    try {
      stage.body(stage.health);
    } catch (const std::exception&) {
      crashed = true;
    } catch (...) {
      crashed = true;
    }
    const bool aborted =
        stage.health.abort_.load(std::memory_order_acquire);
    if (shutdown_.load(std::memory_order_acquire)) {
      break;  // engine shutdown, not a fault
    }
    if (crashed) {
      stage.crashes.fetch_add(1, std::memory_order_relaxed);
      crashes_.fetch_add(1, std::memory_order_relaxed);
    } else if (!aborted) {
      break;  // clean completion: input drained, body returned
    }
    // Stalled (monitor requested abort) or crashed: restart from the last
    // heartbeat cursor, unless the budget is spent.
    if (stage.restarts.load(std::memory_order_relaxed) >=
        options_.max_restarts) {
      stage.failed.store(true, std::memory_order_release);
      failed_.store(true, std::memory_order_release);
      if (failure_handler_) {
        failure_handler_(stage.name);
      }
      break;
    }
    stage.restarts.fetch_add(1, std::memory_order_relaxed);
    restarts_.fetch_add(1, std::memory_order_relaxed);
    if (stage.restart_metric != nullptr) {
      stage.restart_metric->increment();
    }
    stage.health.resume_cursor_.store(
        stage.health.cursor_.load(std::memory_order_relaxed),
        std::memory_order_release);
    stage.health.idle_.store(true, std::memory_order_release);
    stage.health.abort_.store(false, std::memory_order_release);
  }
  stage.done.store(true, std::memory_order_release);
}

void StageSupervisor::monitor_loop() {
  const auto poll = std::chrono::duration<double>(options_.poll_interval_sec);
  const auto timeout =
      std::chrono::duration<double>(options_.stall_timeout_sec);
  while (!monitor_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(poll);
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& entry : stages_) {
      Stage& stage = *entry;
      if (stage.done.load(std::memory_order_acquire) ||
          stage.failed.load(std::memory_order_acquire)) {
        continue;
      }
      const std::uint64_t beats =
          stage.health.beats_.load(std::memory_order_acquire);
      if (beats != stage.seen_beats) {
        stage.seen_beats = beats;
        stage.last_change = now;
        continue;
      }
      if (stage.health.idle_.load(std::memory_order_acquire) ||
          stage.health.abort_.load(std::memory_order_acquire)) {
        stage.last_change = now;
        continue;
      }
      if (now - stage.last_change < timeout) {
        continue;
      }
      // Busy, silent past the timeout: stalled.  Abort cooperatively; the
      // wrapper restarts the body (the monitor never restarts directly, so
      // a stage wedged past every cancellation point is reported exactly
      // once and left to the failure escalation).
      stage.stalls.fetch_add(1, std::memory_order_relaxed);
      stalls_.fetch_add(1, std::memory_order_relaxed);
      if (stage.stall_metric != nullptr) {
        stage.stall_metric->increment();
      }
      stage.health.abort_.store(true, std::memory_order_release);
      stage.last_change = now;
    }
  }
}

void StageSupervisor::request_abort() {
  shutdown_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& stage : stages_) {
    stage->health.abort_.store(true, std::memory_order_release);
  }
}

void StageSupervisor::join_all() {
  if (joined_.exchange(true)) {
    return;
  }
  // Snapshot under the lock, join outside it (the monitor also takes the
  // lock on every poll).
  std::vector<Stage*> stages;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& stage : stages_) {
      stages.push_back(stage.get());
    }
  }
  for (Stage* stage : stages) {
    if (stage->thread.joinable()) {
      stage->thread.join();
    }
  }
  monitor_stop_.store(true, std::memory_order_release);
  if (monitor_.joinable()) {
    monitor_.join();
  }
}

std::vector<StageStats> StageSupervisor::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<StageStats> out;
  out.reserve(stages_.size());
  for (const auto& stage : stages_) {
    StageStats s;
    s.name = stage->name;
    s.processed = stage->health.beats_.load(std::memory_order_relaxed);
    s.stalls = stage->stalls.load(std::memory_order_relaxed);
    s.crashes = stage->crashes.load(std::memory_order_relaxed);
    s.restarts = stage->restarts.load(std::memory_order_relaxed);
    s.last_cursor = stage->health.cursor_.load(std::memory_order_relaxed);
    s.failed = stage->failed.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace emap::robust
