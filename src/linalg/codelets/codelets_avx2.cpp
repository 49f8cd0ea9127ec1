// AVX2+FMA codelets for the rank-R kernel layer.
//
// This TU is compiled with -mavx2 -mfma (see CMakeLists.txt) and is only
// reachable through the tier-resolved RankKernelTable, after the cpuid
// probe (common/cpu_features.h) confirmed avx2+fma — never from baseline
// code paths. Everything except the exported Avx2Table getter lives in an
// anonymous namespace so the linker cannot substitute AVX2-compiled inline
// symbols into TUs built for baseline x86-64.
//
// Numeric contract (see rank_dispatch.h): every slot returns exactly the
// AVX-512 table's bits. The kernels shared with that TU
// (codelet_kernels.h), the register-held Gram solve among them, run here
// on a pair of ymm registers per eight-lane block, lanes 0–3 and 4–7, so a
// dot keeps the AVX-512 tier's eight partial sums and its reduction order.
// This TU keeps only that block type and the SYRK's tile width. Against
// the generic tier, the elementwise kernels (fill, copy, mul, mul_accum)
// and exp_clamped are bitwise equal; the multiply-accumulate kernels fuse
// their multiply-adds, and the dots also group their sums differently, so
// they agree to a few ulps.
//
// Padded-buffer contract: P > 0 instantiations run exactly P lanes
// (P ≡ 0 mod 4, buffers padded with zeros per linalg/simd.h), so only the
// P = 0 runtime-length instantiations have scalar tails — they serve the
// Gram solve's row-suffix loops, whose suffixes are unaligned, so every
// vector access uses unaligned loads/stores. The register-held Gram solve
// of P ≤ 32 reproduces those loops' roundings.
//
// Like the rest of the library, this TU is compiled with -ffp-contract=off:
// a scalar tail fuses a multiply-add exactly where it calls std::fma, in
// every build type.

#include "linalg/codelets/codelet_tables.h"

#ifdef SNS_HAVE_X86_CODELETS

#include <immintrin.h>

#include <cstdint>

#include "linalg/codelets/codelet_kernels.h"

namespace sns::codelets {
namespace {

inline __m256d Pow2Lanes(__m256d t) {
  return _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(_mm256_castpd_si256(t),
                       _mm256_set1_epi64x(exp_clamped::kExponentBias)),
      52));
}

// The eight-lane block of codelet_kernels.h: lanes 0–3 in lo, 4–7 in hi.
struct YmmPair {
  struct V {
    __m256d lo, hi;
  };
  static V Zero() { return {_mm256_setzero_pd(), _mm256_setzero_pd()}; }
  static V Set1(double x) { return {_mm256_set1_pd(x), _mm256_set1_pd(x)}; }
  static V Load(const double* p) {
    return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
  }
  static void Store(double* p, V v) {
    _mm256_storeu_pd(p, v.lo);
    _mm256_storeu_pd(p + 4, v.hi);
  }
  static V Add(V a, V b) {
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
  }
  static V Sub(V a, V b) {
    return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
  }
  static V Mul(V a, V b) {
    return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
  }
  static V Fmadd(V a, V b, V c) {
    return {_mm256_fmadd_pd(a.lo, b.lo, c.lo),
            _mm256_fmadd_pd(a.hi, b.hi, c.hi)};
  }
  static V Fnmadd(V a, V b, V c) {
    return {_mm256_fnmadd_pd(a.lo, b.lo, c.lo),
            _mm256_fnmadd_pd(a.hi, b.hi, c.hi)};
  }
  static V Min(V a, V b) {
    return {_mm256_min_pd(a.lo, b.lo), _mm256_min_pd(a.hi, b.hi)};
  }
  static V Max(V a, V b) {
    return {_mm256_max_pd(a.lo, b.lo), _mm256_max_pd(a.hi, b.hi)};
  }
  static V Pow2(V t) { return {Pow2Lanes(t.lo), Pow2Lanes(t.hi)}; }
  static double Reduce(V v) { return ReduceLanes8(v.lo, v.hi); }
  static V LoadFirst(const double* p, int64_t count) {
    return {_mm256_maskload_pd(p, First(count, 0)),
            _mm256_maskload_pd(p + 4, First(count, 1))};
  }
  static void StoreFirst(double* p, int64_t count, V v) {
    _mm256_maskstore_pd(p, First(count, 0), v.lo);
    _mm256_maskstore_pd(p + 4, First(count, 1), v.hi);
  }
  static __m256i First(int64_t count, int w) {
    return _mm256_castpd_si256(BlockMask(0, count, w));
  }
};

// Weighted upper SYRK (see VecWeightedSyrkUpper): the shared tiles, at
// most 12 columns wide, so a 4-row tile holds 12 ymm accumulators, 3
// column loads and a broadcast.
template <int64_t P>
void WeightedSyrkUpper(const double* panel, const double* weights,
                       int64_t cells, int64_t rows, double* out, int64_t n) {
  WeightedSyrkTiles<YmmPair, 12>(panel, weights, cells, rows, out,
                                 TripCount<P>(n));
}

template <int64_t P>
constexpr RankKernelTable kTable =
    SharedKernelTable<YmmPair, P>(KernelTier::kAvx2, &WeightedSyrkUpper<P>);

}  // namespace

const RankKernelTable& Avx2Table(int64_t padded_rank) {
  return DispatchPaddedRank(padded_rank,
                            [](auto tag) -> const RankKernelTable& {
                              return kTable<decltype(tag)::value>;
                            });
}

}  // namespace sns::codelets

#endif  // SNS_HAVE_X86_CODELETS
