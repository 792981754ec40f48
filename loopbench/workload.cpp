#include "workload.hpp"

#include <array>

#include "emap/mdb/builder.hpp"
#include "emap/synth/corpus.hpp"

namespace loopbench {

using namespace emap;

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "batch-clean") {
    return Workload::kBatchClean;
  }
  if (name == "batch-faulted") {
    return Workload::kBatchFaulted;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  return workload == Workload::kBatchClean ? "batch-clean" : "batch-faulted";
}

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t z = workload_seed * 0x9e3779b97f4a7c15ULL +
                    stream * 0xbf58476d1ce4e5b9ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t timed_rounds(std::size_t seconds) {
  return (kTimedRunsPerSecond * seconds + kSessionsPerRun - 1) /
         kSessionsPerRun;
}

synth::Recording make_session(std::uint64_t workload_seed,
                              std::size_t index) {
  constexpr std::array<synth::AnomalyClass, 4> kClasses = {
      synth::AnomalyClass::kNormal, synth::AnomalyClass::kSeizure,
      synth::AnomalyClass::kEncephalopathy, synth::AnomalyClass::kStroke};
  synth::EvalInputSpec spec;
  spec.cls = kClasses[index % kClasses.size()];
  spec.seed = derive_seed(workload_seed, 1, index);
  spec.duration_sec = kSessionSec;
  spec.onset_sec = kSessionSec * kOnsetFraction;
  return synth::make_eval_input(spec);
}

mdb::MdbStore build_mdb(std::size_t per_corpus) {
  mdb::MdbBuilder builder;
  for (const auto& corpus : synth::standard_corpora(per_corpus)) {
    const auto recordings = synth::generate_corpus(corpus);
    for (std::size_t i = 0; i < recordings.size(); ++i) {
      builder.add_recording(recordings[i], corpus.name,
                            static_cast<std::uint32_t>(i));
    }
  }
  return builder.take_store();
}

core::PipelineOptions pipeline_options(
    Workload workload, std::uint64_t workload_seed, std::size_t session,
    const std::filesystem::path& checkpoint_dir) {
  core::PipelineOptions options;
  options.platform = net::CommPlatform::kLte;
  options.cloud_threads = kCloudThreads;
  if (workload == Workload::kBatchFaulted) {
    options.fault.up.drop = 0.05;
    options.fault.up.delay = 0.10;
    options.fault.up.delay_min_sec = 0.05;
    options.fault.up.delay_max_sec = 0.50;
    options.fault.down.drop = 0.05;
    options.fault.down.corrupt = 0.02;
    options.fault.down.duplicate = 0.05;
    options.fault.seed = derive_seed(workload_seed, 2, session);
    options.recovery.checkpoint_dir = checkpoint_dir;
  }
  return options;
}

}  // namespace loopbench
