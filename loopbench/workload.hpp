// Workload definitions of the loop benchmark: the fixed MDB, the seeded
// evaluation sessions, and the pipeline options of each workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string_view>

#include "emap/core/pipeline.hpp"
#include "emap/mdb/store.hpp"
#include "emap/synth/generator.hpp"

namespace loopbench {

enum class Workload {
  kBatchClean,    ///< EmapPipeline::run on a clean link, no checkpointing
  kBatchFaulted,  ///< seeded link faults + a checkpoint every window
};

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);

/// Recordings per standard corpus in the MDB (8190 signal-sets).
inline constexpr std::size_t kMdbPerCorpus = 26;
/// Length of one monitored session and the anomaly onset within it.
inline constexpr double kSessionSec = 120.0;
inline constexpr double kOnsetFraction = 0.6;
/// Cloud worker threads, fixed so the numbers do not depend on nproc.
inline constexpr std::size_t kCloudThreads = 2;
/// Distinct sessions of a run: four of each class.
inline constexpr std::size_t kSessionsPerRun = 16;
/// Timed session runs per second of --seconds.  The timed pass repeats
/// the sessions in ceil(4 * seconds / 16) rounds, so the work of a run is
/// fixed by the argument, never by how fast the program is.
inline constexpr std::size_t kTimedRunsPerSecond = 4;

/// Timed rounds over the kSessionsPerRun sessions for a run of `seconds`.
std::size_t timed_rounds(std::size_t seconds);

/// SplitMix64 step: derives independent seeds from the workload seed.
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream,
                          std::uint64_t index);

/// Session `index` of a run: classes rotate normal, seizure,
/// encephalopathy, stroke; the recording seed derives from the workload
/// seed.
emap::synth::Recording make_session(std::uint64_t workload_seed,
                                    std::size_t index);

/// Builds the MDB from synth::standard_corpora(per_corpus).
emap::mdb::MdbStore build_mdb(std::size_t per_corpus = kMdbPerCorpus);

/// Program defaults except: LTE, kCloudThreads, and for kBatchFaulted the
/// seeded link faults (fault seed per session) plus a checkpoint every
/// window into `checkpoint_dir`.
emap::core::PipelineOptions pipeline_options(
    Workload workload, std::uint64_t workload_seed, std::size_t session,
    const std::filesystem::path& checkpoint_dir);

}  // namespace loopbench
