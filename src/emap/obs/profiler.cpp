#include "emap/obs/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

#include "emap/common/build_info.hpp"
#include "emap/common/error.hpp"
#include "emap/obs/export.hpp"
#include "emap/obs/metrics.hpp"

namespace {

// Allocation-attribution target of the current thread.  Plain-POD
// thread_local (no dynamic TLS constructor), so reading it from the global
// operator new is safe at any point of a thread's lifetime; null means "no
// profiled scope active" and costs the interposer one load + branch.
thread_local emap::obs::Profiler::Node* t_alloc_node = nullptr;

inline void count_alloc(std::size_t size) noexcept {
  if (emap::obs::Profiler::Node* node = t_alloc_node) {
    node->alloc_count.fetch_add(1, std::memory_order_relaxed);
    node->alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

// malloc with the standard new-handler retry loop; attribution happens on
// success so a throwing allocation never touches the profiler.
void* counted_alloc(std::size_t size) {
  if (size == 0) {
    size = 1;
  }
  for (;;) {
    if (void* p = std::malloc(size)) {
      count_alloc(size);
      return p;
    }
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) {
      throw std::bad_alloc();
    }
    handler();
  }
}

}  // namespace

// Global operator new/delete replacement (the allocation interposer of
// satellite docs/telemetry.md "Allocation profiling").  Replacing the
// unaligned family is enough: the aligned overloads keep their defaults,
// which are internally consistent.  delete must pair with the malloc above.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace emap::obs {

std::atomic<bool> Profiler::enabled_flag_{false};
std::atomic<std::uint64_t> Profiler::next_id_{0};

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

Profiler::ThreadState& Profiler::local_state() {
  // One state per (thread, profiler): the global instance dominates, so the
  // map is almost always a single entry and the lookup stays cheap.  The
  // profiler owns its states; the map only refers to them.  A hit needs no
  // ownership check, because ids are never reused and only a live profiler
  // looks up its own.  Entries whose profiler has died are dropped on the
  // next insert.
  struct Entry {
    std::weak_ptr<ThreadState> owner;
    ThreadState* state = nullptr;
  };
  thread_local std::map<std::uint64_t, Entry> states;
  if (const auto found = states.find(id_); found != states.end()) {
    return *found->second.state;
  }
  std::erase_if(states,
                [](const auto& entry) { return entry.second.owner.expired(); });
  auto state = std::make_shared<ThreadState>();
  states[id_] = Entry{state, state.get()};
  std::lock_guard<std::mutex> lock(states_mutex_);
  states_.push_back(std::move(state));
  return *states_.back();
}

namespace {

void merge_tree(const Profiler::Node& node, const std::string& prefix,
                std::map<std::string, StageProfile>& merged) {
  for (const auto& [key, child] : node.children) {
    (void)key;
    const std::string path =
        prefix.empty() ? child->name : prefix + "/" + child->name;
    StageProfile& stage = merged[path];
    stage.path = path;
    stage.calls += child->calls;
    stage.work += child->work;
    stage.total_sec += static_cast<double>(child->total_ns) * 1e-9;
    stage.self_sec +=
        static_cast<double>(child->total_ns - child->child_ns) * 1e-9;
    stage.alloc_count +=
        child->alloc_count.load(std::memory_order_relaxed);
    stage.alloc_bytes +=
        child->alloc_bytes.load(std::memory_order_relaxed);
    merge_tree(*child, path, merged);
  }
}

}  // namespace

std::vector<StageProfile> Profiler::report() const {
  std::vector<std::shared_ptr<ThreadState>> states;
  {
    std::lock_guard<std::mutex> lock(states_mutex_);
    states = states_;
  }
  std::map<std::string, StageProfile> merged;
  for (const auto& state : states) {
    std::lock_guard<std::mutex> lock(state->mutex);
    merge_tree(state->root, "", merged);
  }
  std::vector<StageProfile> stages;
  stages.reserve(merged.size());
  for (auto& [path, stage] : merged) {
    (void)path;
    stages.push_back(std::move(stage));
  }
  return stages;
}

std::string Profiler::to_collapsed_stacks() const {
  std::ostringstream out;
  for (const StageProfile& stage : report()) {
    std::string frames = stage.path;
    std::replace(frames.begin(), frames.end(), '/', ';');
    const auto self_us = static_cast<long long>(
        std::llround(std::max(stage.self_sec, 0.0) * 1e6));
    out << frames << ' ' << std::max(self_us, 1ll) << '\n';
  }
  return out.str();
}

std::string Profiler::to_json() const {
  std::ostringstream out;
  out << "{\"build\":{\"git_sha\":\"" << json_escape(build_info::kGitSha)
      << "\",\"build_type\":\"" << json_escape(build_info::kBuildType)
      << "\",\"compiler\":\"" << json_escape(build_info::kCompiler)
      << "\"},\"stages\":[";
  bool first = true;
  for (const StageProfile& stage : report()) {
    if (!first) {
      out << ',';
    }
    first = false;
    JsonWriter json;
    json.field("path", stage.path)
        .field("calls", stage.calls)
        .field("work", stage.work)
        .field("total_sec", stage.total_sec)
        .field("self_sec", stage.self_sec)
        .field("alloc_count", stage.alloc_count)
        .field("alloc_bytes", stage.alloc_bytes);
    out << json.str();
  }
  out << "]}";
  return out.str();
}

void Profiler::reset() {
  std::vector<std::shared_ptr<ThreadState>> states;
  {
    std::lock_guard<std::mutex> lock(states_mutex_);
    states = states_;
  }
  for (const auto& state : states) {
    std::lock_guard<std::mutex> lock(state->mutex);
    // A thread may be inside open scopes during reset; drop the finished
    // numbers but keep the open chain intact so those scopes still close
    // into live nodes.
    struct Walker {
      static void clear(Profiler::Node& node) {
        node.calls = 0;
        node.work = 0;
        node.total_ns = 0;
        node.child_ns = 0;
        node.alloc_count.store(0, std::memory_order_relaxed);
        node.alloc_bytes.store(0, std::memory_order_relaxed);
        for (auto& [key, child] : node.children) {
          (void)key;
          clear(*child);
        }
      }
    };
    Walker::clear(state->root);
  }
}

namespace {

Profiler::Node* enter(Profiler::ThreadState& state, const char* name) {
  std::lock_guard<std::mutex> lock(state.mutex);
  std::unique_ptr<Profiler::Node>& slot =
      state.current->children[static_cast<const void*>(name)];
  if (slot == nullptr) {
    slot = std::make_unique<Profiler::Node>();
    slot->name = name;
    slot->parent = state.current;
  }
  state.current = slot.get();
  return slot.get();
}

}  // namespace

ProfileScope::ProfileScope(const char* name) {
  if (!Profiler::enabled()) {
    return;
  }
  state_ = &Profiler::instance().local_state();
  node_ = enter(*state_, name);
  prev_alloc_node_ = t_alloc_node;
  t_alloc_node = node_;
  started_ = std::chrono::steady_clock::now();
}

ProfileScope::ProfileScope(const char* name, Profiler& profiler) {
  state_ = &profiler.local_state();
  node_ = enter(*state_, name);
  prev_alloc_node_ = t_alloc_node;
  t_alloc_node = node_;
  started_ = std::chrono::steady_clock::now();
}

ProfileScope::~ProfileScope() {
  if (node_ == nullptr) {
    return;
  }
  t_alloc_node = prev_alloc_node_;
  const auto elapsed_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started_)
          .count();
  std::lock_guard<std::mutex> lock(state_->mutex);
  node_->calls += 1;
  node_->total_ns += elapsed_ns;
  if (node_->parent != nullptr) {
    node_->parent->child_ns += elapsed_ns;
  }
  state_->current = node_->parent != nullptr ? node_->parent : node_;
}

void ProfileScope::add_work(std::uint64_t count) {
  if (node_ == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(state_->mutex);
  node_->work += count;
}

namespace {

void write_text(const std::filesystem::path& path, const std::string& text,
                const char* who) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream stream(path);
  if (!stream) {
    throw IoError(std::string(who) + ": cannot open " + path.string());
  }
  stream << text;
  if (!stream) {
    throw IoError(std::string(who) + ": write failed for " + path.string());
  }
}

}  // namespace

void write_profile_json(const std::filesystem::path& path,
                        const Profiler& profiler) {
  write_text(path, profiler.to_json() + "\n", "write_profile_json");
}

void write_collapsed_stacks(const std::filesystem::path& path,
                            const Profiler& profiler) {
  write_text(path, profiler.to_collapsed_stacks(), "write_collapsed_stacks");
}

void export_profiler_alloc_metrics(MetricsRegistry& registry,
                                   const Profiler& profiler) {
  for (const StageProfile& stage : profiler.report()) {
    registry
        .gauge("emap_profiler_alloc_count", {{"stage", stage.path}},
               "Heap allocations attributed to the stage (interposed "
               "operator new)")
        .set(static_cast<double>(stage.alloc_count));
    registry
        .gauge("emap_profiler_alloc_bytes", {{"stage", stage.path}},
               "Heap bytes requested by the stage (interposed operator new)")
        .set(static_cast<double>(stage.alloc_bytes));
  }
}

}  // namespace emap::obs
