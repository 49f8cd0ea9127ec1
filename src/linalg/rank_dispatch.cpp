#include "linalg/rank_dispatch.h"

#ifdef SNS_HAVE_X86_CODELETS
#include "linalg/codelets/codelet_tables.h"
#endif

namespace sns {
namespace {

template <int64_t P>
constexpr RankKernelTable kGenericTable = {KernelTier::kGeneric,
                                           P,
                                           &VecFill<P>,
                                           &VecCopy<P>,
                                           &VecAxpy<P>,
                                           &VecMul<P>,
                                           &VecMulAccum<P>,
                                           &VecFma3<P>,
                                           &VecDot<P>,
                                           &VecGramRowDelta<P>,
                                           &VecScaledDiffAccum<P>,
                                           &VecWeightedSyrkUpper<P>,
                                           &VecCoordinateDescent<P>};

const RankKernelTable& GenericTable(int64_t padded_rank) {
  // Reuses DispatchPaddedRank so the specialization set lives in exactly
  // one place (the RankTag switch in rank_dispatch.h).
  return DispatchPaddedRank(
      padded_rank, [](auto tag) -> const RankKernelTable& {
        return kGenericTable<decltype(tag)::value>;
      });
}

}  // namespace

const RankKernelTable& GetRankKernelTable(int64_t padded_rank,
                                          KernelTier tier) {
#ifdef SNS_HAVE_X86_CODELETS
  switch (tier) {
    case KernelTier::kAvx512:
      return codelets::Avx512Table(padded_rank);
    case KernelTier::kAvx2:
      return codelets::Avx2Table(padded_rank);
    case KernelTier::kGeneric:
      break;
  }
#else
  (void)tier;  // Codelet TUs not in this build: every tier is generic.
#endif
  return GenericTable(padded_rank);
}

const RankKernelTable& GetRankKernelTable(int64_t padded_rank) {
  return GetRankKernelTable(padded_rank, ResolveKernelTier());
}

}  // namespace sns
