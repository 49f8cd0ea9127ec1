#include "linalg/rank_dispatch.h"

#include <bit>

#ifdef SNS_HAVE_X86_CODELETS
#include "linalg/codelets/codelet_tables.h"
#endif

namespace sns {
namespace {

// The scalar body of ExpClamped (see rank_dispatch.h for the derivation);
// the intrinsic tiers run the same steps lane-wise.
inline double ExpClampedBody(double x) {
  using namespace exp_clamped;
  // std::clamp's comparisons: a NaN fails both and passes through.
  if (x < -kBound) {
    x = -kBound;
  } else if (x > kBound) {
    x = kBound;
  }
  const double t = x * kLog2e + kShifter;
  const double k = t - kShifter;
  const double r = (x - k * kLn2Hi) - k * kLn2Lo;
  double q = kCoeffs[kNumCoeffs - 1];
  for (int i = kNumCoeffs - 2; i >= 0; --i) q = q * r + kCoeffs[i];
  const double p = r + (r * r) * q;
  const double scale = std::bit_cast<double>(
      (std::bit_cast<uint64_t>(t) + static_cast<uint64_t>(kExponentBias))
      << 52);
  return (1.0 + p) * scale;
}

void GenericExpClamped(const double* x, double* out, int64_t count) {
  for (int64_t i = 0; i < count; ++i) out[i] = ExpClampedBody(x[i]);
}

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
                                           &VecGramRankTwoUpdate<P>,
                                           &VecWeightedSyrkUpper<P>,
                                           &CoordinateDescentSweep<
                                               P, &VecGradientBlock<P>,
                                               &VecAxpy<P>, &UnfusedMulAdd>,
                                           &VecPanelDots<P>,
                                           &VecPanelAxpy<P>,
                                           &VecGatherHadamardDots<P>,
                                           &GenericExpClamped,
                                           &VecCholeskyUpper<P>,
                                           &VecCholeskySolveUpper<P>};

const RankKernelTable& GenericTable(int64_t padded_rank) {
  // Reuses DispatchPaddedRank so the specialization set lives in exactly
  // one place (the RankTag switch in rank_dispatch.h).
  return DispatchPaddedRank(
      padded_rank, [](auto tag) -> const RankKernelTable& {
        return kGenericTable<decltype(tag)::value>;
      });
}

}  // namespace

double ExpClamped(double x) { return ExpClampedBody(x); }

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
