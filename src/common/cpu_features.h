// Runtime CPU feature probe and kernel-tier resolution.
//
// The rank-R kernel layer ships three implementation tiers of the same
// RankKernelTable contract (linalg/rank_dispatch.h): the portable generic
// kernels, AVX2+FMA codelets, and AVX-512 codelets (linalg/codelets/). The
// probe below runs cpuid once per process and picks the widest tier the
// host supports AND the build compiled in, so a single binary runs
// everywhere a baseline x86-64 build runs while using the full vector width
// where available. Non-x86 builds (or builds without the codelet TUs)
// always resolve to the generic tier.
//
// The tier is a property of the process, not of an engine: every kernel
// table resolved without an explicit tier uses it. The one override is the
// SNS_FORCE_GENERIC_KERNELS environment variable (set to anything but "0"),
// which pins the whole process to the generic tier.

#ifndef SLICENSTITCH_COMMON_CPU_FEATURES_H_
#define SLICENSTITCH_COMMON_CPU_FEATURES_H_

#include <optional>
#include <string>

namespace sns {

/// The x86 SIMD extensions the kernel tiers care about, plus the
/// carry-less multiply the CRC-32 fold uses (common/crc32.cpp). All false
/// on non-x86 targets.
struct CpuFeatures {
  bool sse42 = false;
  bool avx = false;
  bool fma = false;
  bool avx2 = false;
  bool avx512f = false;
  bool pclmul = false;
};

/// cpuid probe, run once per process and cached.
const CpuFeatures& DetectCpuFeatures();

/// Implementation tiers of the rank-R kernel layer, widest last.
enum class KernelTier {
  kGeneric,  // Portable __restrict kernels (always available).
  kAvx2,     // AVX2+FMA codelets (linalg/codelets/codelets_avx2.cpp).
  kAvx512,   // AVX-512F codelets (linalg/codelets/codelets_avx512.cpp).
};

/// Display name: "generic", "avx2", "avx512".
const char* KernelTierName(KernelTier tier);

/// True when the codelet TU for `tier` is linked into this build (the
/// generic tier always is).
bool KernelTierCompiledIn(KernelTier tier);

/// True when `tier` is compiled in AND the host CPU supports it.
bool KernelTierSupported(KernelTier tier);

/// The tier every auto-dispatched table resolves to: the widest supported
/// tier, unless the SNS_FORCE_GENERIC_KERNELS environment variable pins it
/// to generic. Computed once and cached (see
/// internal::RefreshKernelTierForTest).
KernelTier ResolveKernelTier();

/// One-line provenance summary for benchmark JSON, e.g.
/// "sse4.2+avx+fma+avx2+avx512f+pclmul tier=avx512".
std::string CpuFeaturesSummary();

namespace internal {
/// Replaces the cached process tier: with `tier`, pins it (which must be
/// supported); without, re-reads SNS_FORCE_GENERIC_KERNELS and recomputes
/// it. Test hook only — production code resolves the tier once per process.
/// Library kernels pick up the new tier at their next call; a table a
/// workspace already cached keeps its tier until the workspace is sized
/// again.
void RefreshKernelTierForTest(std::optional<KernelTier> tier = std::nullopt);
}  // namespace internal

}  // namespace sns

#endif  // SLICENSTITCH_COMMON_CPU_FEATURES_H_
