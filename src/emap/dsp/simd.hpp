// Runtime SIMD dispatch for the DSP hot-path kernels.
//
// The Algorithm 1 correlation scan and the Algorithm 2 area kernel are the
// two compute paths the paper's ~3 s initial-response guarantee rides on.
// Both now carry an AVX2+FMA arm next to the original scalar loops; this
// header is the one place that decides which arm runs.
//
// Selection is explicit and testable, because the deterministic tests and
// the checkpoint bit-identity guarantees depend on exact reproducibility:
//
//   - the scalar arm is the original code, bit-for-bit — `EMAP_SIMD=off`
//     reproduces pre-SIMD behavior exactly;
//   - the AVX2 arm changes reduction order (4-lane partial sums, FMA), so
//     its results agree with scalar only within a pinned ULP bound (see
//     tests/support/kernel_diff.hpp and docs/performance.md) — never mix
//     arms within one comparison that expects bit-identity;
//   - resolution order: force_level() (tests/benches) > $EMAP_SIMD
//     (off|scalar|avx2) > best arm this binary + CPU supports.
//
// `EMAP_SIMD=avx2` on a host or binary without AVX2 falls back to scalar
// (recorded by active_level(); tests that need the AVX2 arm skip instead
// of failing).  Per-arm invocation counters let CI assert the AVX2 arm
// actually executed on capable hosts instead of silently testing scalar
// twice.
#pragma once

#include <cstdint>
#include <optional>

namespace emap::dsp::simd {

/// Kernel implementation arms, in preference order.
enum class Level : int {
  kScalar = 0,  ///< original sequential loops; always available
  kAvx2 = 1,    ///< AVX2+FMA, 4-lane doubles; needs compile + CPU support
};

/// Stable lowercase name ("scalar" / "avx2") for logs, stage paths, and
/// bench headline keys.
const char* level_name(Level level);

/// True when this binary contains the AVX2 arm (the toolchain accepted
/// -mavx2 -mfma at configure time).
bool compiled_with_avx2();

/// True when the running CPU (and OS) support AVX2 — cached cpuid probe.
bool cpu_supports_avx2();

/// Parses an EMAP_SIMD value: "off"/"scalar" -> kScalar, "avx2" -> kAvx2.
/// Throws InvalidArgument on anything else.  Pure function (testable).
Level parse_level(const char* value);

/// The arm the next kernel call will take: forced level if set, else the
/// $EMAP_SIMD request (read once per process), else the best supported
/// arm.  A request for an unavailable arm resolves to kScalar.
Level active_level();

/// Test/bench hook: overrides dispatch until reset with std::nullopt.
/// A forced kAvx2 on a host without AVX2 still resolves to kScalar.
void force_level(std::optional<Level> level);

/// Number of dispatched kernel-group invocations that took `level`'s arm
/// since the last reset.  One increment per public DSP kernel entry
/// (a correlate, an area sum, one search shard's scan), not per sample.
std::uint64_t kernel_invocations(Level level);

/// Zeroes both invocation counters (tests).
void reset_kernel_invocations();

/// Internal: bumps the counter for `level` (relaxed; called by dispatch).
void count_kernel_invocation(Level level);

}  // namespace emap::dsp::simd
