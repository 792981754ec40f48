#include "emap/robust/crashpoint.hpp"

#include <cstdlib>

namespace emap::robust {

const std::vector<std::string>& crash_point_catalog() {
  static const std::vector<std::string> kCatalog = {
      "pipeline_window_start",  "pipeline_tracker_step",
      "pipeline_pre_cloud_call", "pipeline_post_cloud_call",
      "pipeline_window_end",     "checkpoint_pre_write",
      "checkpoint_pre_rename",   "checkpoint_post_write",
  };
  return kCatalog;
}

void CrashPointRegistry::arm(CrashSchedule schedule, CrashAction action) {
  require(!schedule.point.empty(), "CrashPointRegistry::arm: empty point name");
  require(schedule.hit >= 1, "CrashPointRegistry::arm: hit index is 1-based");
  std::lock_guard<std::mutex> lock(mutex_);
  schedule_ = std::move(schedule);
  random_.reset();
  action_ = action;
  armed_ = true;
}

void CrashPointRegistry::arm_random(double probability, std::uint64_t seed,
                                    CrashAction action) {
  require(probability >= 0.0 && probability <= 1.0,
          "CrashPointRegistry::arm_random: probability must be in [0, 1]");
  std::lock_guard<std::mutex> lock(mutex_);
  schedule_.reset();
  random_.emplace(seed);
  random_probability_ = probability;
  action_ = action;
  armed_ = true;
}

void CrashPointRegistry::disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_ = false;
  schedule_.reset();
  random_.reset();
}

bool CrashPointRegistry::armed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return armed_;
}

void CrashPointRegistry::hit(const char* point) {
  std::string fired_point;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t count = ++counts_[point];
    if (!armed_) {
      return;
    }
    if (schedule_.has_value()) {
      if (schedule_->point == point && count == schedule_->hit) {
        fired_point = point;
      }
    } else if (random_.has_value() &&
               random_->bernoulli(random_probability_)) {
      fired_point = point;
    }
  }
  if (!fired_point.empty()) {
    fire(fired_point);
  }
}

std::uint64_t CrashPointRegistry::hits(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counts_.find(point);
  return it == counts_.end() ? 0 : it->second;
}

std::vector<std::string> CrashPointRegistry::seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(counts_.size());
  for (const auto& [name, count] : counts_) {
    names.push_back(name);
  }
  return names;
}

void CrashPointRegistry::fire(const std::string& point) {
  if (action_ == CrashAction::kExit) {
    // A real crash: no destructors, no flushing, the checkpoint on disk is
    // whatever the atomic rename last published.
    std::_Exit(kCrashExitCode);
  }
  throw InjectedCrash(point);
}

}  // namespace emap::robust
