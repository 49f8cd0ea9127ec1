// Entry points of the intrinsic codelet TUs.
//
// codelets_avx2.cpp and codelets_avx512.cpp implement the RankKernelTable
// contract with explicit AVX2+FMA / AVX-512F intrinsics. Each TU is
// compiled with the matching -m flags (see CMakeLists.txt), so its code
// must only ever run after the cpuid probe confirmed support — which is
// guaranteed because the only way to reach it is through the tier-resolved
// tables of GetRankKernelTable (linalg/rank_dispatch.cpp). Everything
// inside those TUs lives in anonymous namespaces except the two getters
// below, so no inline symbol compiled with wide-vector flags can leak into
// baseline TUs through the linker. That includes the kernels the two TUs
// share (codelet_kernels.h: every slot but the SYRK): each TU compiles its
// own copy, and keeps only its eight-double block type and its SYRK.
//
// The getters are only linked into builds that define SNS_HAVE_X86_CODELETS
// (x86-64 with a GCC/Clang toolchain); rank_dispatch.cpp guards every
// reference accordingly.

#ifndef SLICENSTITCH_LINALG_CODELETS_CODELET_TABLES_H_
#define SLICENSTITCH_LINALG_CODELETS_CODELET_TABLES_H_

#include <cstdint>

#include "linalg/rank_dispatch.h"

namespace sns::codelets {

/// AVX2+FMA table for a padded rank (0 selects the runtime-bound table).
/// Static storage duration; requires avx2+fma at runtime.
const RankKernelTable& Avx2Table(int64_t padded_rank);

/// AVX-512F table for a padded rank (0 selects the runtime-bound table).
/// Static storage duration; requires avx512f (+avx2+fma) at runtime.
const RankKernelTable& Avx512Table(int64_t padded_rank);

}  // namespace sns::codelets

#endif  // SLICENSTITCH_LINALG_CODELETS_CODELET_TABLES_H_
