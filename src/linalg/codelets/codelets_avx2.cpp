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
// (codelet_kernels.h) run here on a pair of ymm registers per eight-lane
// block, lanes 0–3 and 4–7, so a dot keeps the AVX-512 tier's eight
// partial sums and its reduction order. The SYRK and the register-held
// Gram solve below are this tier's own code for the same roundings. Against
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

#include <algorithm>
#include <cmath>

#include "linalg/codelets/codelet_kernels.h"

namespace sns::codelets {
namespace {

// All-ones in the lanes [lo, hi) of a row that fall in four-lane block w.
inline __m256d BlockMask(int64_t lo, int64_t hi, int w) {
  const __m256i ids = _mm256_add_epi64(_mm256_set1_epi64x(4 * w),
                                       _mm256_setr_epi64x(0, 1, 2, 3));
  return _mm256_castsi256_pd(
      _mm256_andnot_si256(_mm256_cmpgt_epi64(_mm256_set1_epi64x(lo), ids),
                          _mm256_cmpgt_epi64(_mm256_set1_epi64x(hi), ids)));
}

// x in the lanes of v whose bit is set in the low 4 bits of `lanes`.
inline __m256d BlendLanes(__m256d v, uint32_t lanes, __m256d x) {
  const __m256i bits = _mm256_setr_epi64x(1, 2, 4, 8);
  const __m256i set = _mm256_cmpeq_epi64(
      _mm256_and_si256(_mm256_set1_epi64x(lanes), bits), bits);
  return _mm256_blendv_pd(v, x, _mm256_castsi256_pd(set));
}

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
  static V LoadLow(const double* p) {
    return {_mm256_loadu_pd(p), _mm256_setzero_pd()};
  }
  static __m256d Low(V v) { return v.lo; }
  static V Blend(V v, uint32_t lanes, V x) {
    return {BlendLanes(v.lo, lanes, x.lo), BlendLanes(v.hi, lanes >> 4, x.hi)};
  }
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

// ---------------------------------------------------------------------------
// Gram solve (see CholeskyUpperRowSuffixes and CholeskySolveUpperRowSuffixes
// in rank_dispatch.h). P = 0 runs those loops over this tier's Axpy<0> and
// Dot<0>. For P ≤ 32 a row of U, or x, lives in P/4 ymm registers, and
// every element takes the operations of those loops in their order, so the
// factor and the solution are theirs bit for bit:
//   - the factorization is up-looking: row i is loaded from a and takes its
//     updates k = 0..i−1 in k order, each a fused multiply-add by −u_ki
//     (skipped where u_ki == 0, as the loop skips it), then the pivot test,
//     √pivot and the 1/√pivot row scale. While two rows fit in the
//     registers they go in pairs, so their update chains overlap; the
//     second row takes the first's update from registers. A row is stored
//     whole, with zeros below the diagonal and from `order` on.
//   - forward elimination updates x's lanes (k, order) with fused
//     multiply-adds, blending the diagonal block, as Axpy<0> does to the
//     suffix;
//   - back substitution forms each suffix dot in Dot<0>'s grouping, each
//     eight-lane chunk from two four-lane windows of the register-held x.

template <int64_t P>
constexpr int kBlocks = static_cast<int>(P / 4);

// Every lane set to lane l (< 4) of v.
inline __m256d BroadcastLane(__m256d v, int64_t l) {
  const __m256i idx = _mm256_set1_epi64x((2 * l) | ((2 * l + 1) << 32));
  return _mm256_castps_pd(
      _mm256_permutevar8x32_ps(_mm256_castpd_ps(v), idx));
}

inline double LaneOf(__m256d v, int64_t l) {
  return _mm256_cvtsd_f64(BroadcastLane(v, l));
}

// Row i of the factorization once its updates are in, held in the blocks
// G.. of `acc` (its diagonal is in block G): the pivot test, then √pivot on
// the diagonal and the 1/√pivot scale on (i, order). Leaves the row as
// stored in `acc`.
template <int64_t P, int G>
inline bool FinishRow(__m256d (&acc)[kBlocks<P> - G], int64_t i,
                      int64_t order, double* row) {
  const double pivot = LaneOf(acc[0], i & 3);
  if (pivot <= 0.0 || !std::isfinite(pivot)) return false;
  const double diag = std::sqrt(pivot);
  const __m256d inv = _mm256_set1_pd(1.0 / diag);
  for (int w = 0; w < kBlocks<P> - G; ++w) {
    acc[w] = _mm256_blendv_pd(
        _mm256_and_pd(_mm256_mul_pd(acc[w], inv),
                      BlockMask(i + 1, order, G + w)),
        _mm256_set1_pd(diag), BlockMask(i, i + 1, G + w));
    _mm256_storeu_pd(row + 4 * (G + w), acc[w]);
  }
  return true;
}

// Rows [4G, 4G + 4) ∩ [0, order) of the up-looking factorization, then the
// next group. Their lanes below block G are below the diagonal, so they
// are neither formed nor stored.
template <int64_t P, int G>
bool FactorizeGroup(const double* a, double* u, int64_t order) {
  constexpr int kN = kBlocks<P> - G;
  // Two rows of accumulators, two broadcasts and a loaded block.
  constexpr bool kPairs = 2 * kN + 3 <= 16;
  const int64_t end = std::min<int64_t>(order, 4 * G + 4);
  int64_t i = 4 * G;
  if constexpr (kPairs) {
    for (; i + 2 <= end; i += 2) {
      __m256d r0[kN], r1[kN];
      for (int w = 0; w < kN; ++w) {
        r0[w] = _mm256_loadu_pd(a + i * P + 4 * (G + w));
        r1[w] = _mm256_loadu_pd(a + (i + 1) * P + 4 * (G + w));
      }
      for (int64_t k = 0; k < i; ++k) {
        const double* uk = u + k * P;
        const double u0 = uk[i], u1 = uk[i + 1];
        const __m256d n0 = _mm256_set1_pd(-u0), n1 = _mm256_set1_pd(-u1);
        for (int w = 0; w < kN; ++w) {
          const __m256d src = _mm256_loadu_pd(uk + 4 * (G + w));
          if (u0 != 0.0) r0[w] = _mm256_fmadd_pd(n0, src, r0[w]);
          if (u1 != 0.0) r1[w] = _mm256_fmadd_pd(n1, src, r1[w]);
        }
      }
      if (!FinishRow<P, G>(r0, i, order, u + i * P)) return false;
      const double u01 = LaneOf(r0[0], (i + 1) & 3);
      if (u01 != 0.0) {
        const __m256d n = _mm256_set1_pd(-u01);
        for (int w = 0; w < kN; ++w) r1[w] = _mm256_fmadd_pd(n, r0[w], r1[w]);
      }
      if (!FinishRow<P, G>(r1, i + 1, order, u + (i + 1) * P)) return false;
    }
  }
  for (; i < end; ++i) {
    __m256d r0[kN];
    for (int w = 0; w < kN; ++w) {
      r0[w] = _mm256_loadu_pd(a + i * P + 4 * (G + w));
    }
    for (int64_t k = 0; k < i; ++k) {
      const double* uk = u + k * P;
      const double u0 = uk[i];
      if (u0 == 0.0) continue;
      const __m256d n0 = _mm256_set1_pd(-u0);
      for (int w = 0; w < kN; ++w) {
        r0[w] = _mm256_fmadd_pd(n0, _mm256_loadu_pd(uk + 4 * (G + w)), r0[w]);
      }
    }
    if (!FinishRow<P, G>(r0, i, order, u + i * P)) return false;
  }
  if constexpr (G + 1 < kBlocks<P>) {
    if (order > 4 * G + 4) return FactorizeGroup<P, G + 1>(a, u, order);
  }
  return true;
}

template <int64_t P>
bool CholeskyUpper(const double* a, double* u, int64_t order, int64_t n) {
  if constexpr (P == 0) {
    return CholeskyUpperRowSuffixes<&Axpy<YmmPair, 0>>(a, u, order, n);
  } else {
    return FactorizeGroup<P, 0>(a, u, order);
  }
}

// Block w of a register-held vector, zero past its last block.
template <int kB>
inline __m256d BlockOrZero(const __m256d (&x)[kB], int w) {
  return w < kB ? x[w] : _mm256_setzero_pd();
}

template <int kB>
inline double Lane(const __m256d (&x)[kB], int64_t j) {
  __m256d block = x[0];
  for (int w = 1; w < kB; ++w) {
    if ((j >> 2) == w) block = x[w];
  }
  return LaneOf(block, j & 3);
}

// Lanes [start, start + 4) of a register-held vector (zero past its end):
// lane t is element start + t, from the block holding `start` while
// (start & 3) + t < 4 and from the next one after that.
template <int kB>
inline __m256d Window(const __m256d (&x)[kB], int64_t start) {
  __m256d lo = x[0];
  __m256d hi = BlockOrZero(x, 1);
  for (int w = 1; w < kB; ++w) {
    if ((start >> 2) == w) {
      lo = x[w];
      hi = BlockOrZero(x, w + 1);
    }
  }
  const __m256i pos = _mm256_add_epi64(_mm256_set1_epi64x(start & 3),
                                       _mm256_setr_epi64x(0, 1, 2, 3));
  const __m256i lane2 = _mm256_slli_epi64(
      _mm256_and_si256(pos, _mm256_set1_epi64x(3)), 1);
  const __m256i idx = _mm256_or_si256(
      lane2,
      _mm256_slli_epi64(_mm256_add_epi64(lane2, _mm256_set1_epi64x(1)), 32));
  const __m256d from_hi = _mm256_castsi256_pd(
      _mm256_cmpgt_epi64(pos, _mm256_set1_epi64x(3)));
  return _mm256_blendv_pd(
      _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_castpd_ps(lo), idx)),
      _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_castpd_ps(hi), idx)),
      from_hi);
}

// Forward elimination steps k in [4G, 4G + 4) ∩ [0, order), then the next
// group: y_k = x_k / u_kk, and x(k+1..order) += (−y_k)·U(k, k+1..order).
// x_k arrives as a scalar: each step also forms x_{k+1} from its lane's
// value before the step, with the fused multiply-add that lane gets, so
// the step-to-step chain is a divide and one fused multiply-add. Lanes
// from `order` on are never read, so only block G is blended.
template <int64_t P, int G>
void ForwardGroup(const double* u, __m256d (&x)[kBlocks<P>], double x_k,
                  int64_t order) {
  const int64_t end = std::min<int64_t>(order, 4 * G + 4);
  for (int64_t k = 4 * G; k < end; ++k) {
    const double* uk = u + k * P;
    const double y = x_k / uk[k];
    if (k + 1 < order) x_k = std::fma(-y, uk[k + 1], Lane(x, k + 1));
    const __m256d neg_y = _mm256_set1_pd(-y);
    x[G] = _mm256_blendv_pd(
        _mm256_blendv_pd(
            x[G], _mm256_fmadd_pd(neg_y, _mm256_loadu_pd(uk + 4 * G), x[G]),
            BlockMask(k + 1, order, G)),
        _mm256_set1_pd(y), BlockMask(k, k + 1, G));
    for (int w = G + 1; w < kBlocks<P>; ++w) {
      x[w] = _mm256_fmadd_pd(neg_y, _mm256_loadu_pd(uk + 4 * w), x[w]);
    }
  }
  if constexpr (G + 1 < kBlocks<P>) {
    if (order > 4 * G + 4) ForwardGroup<P, G + 1>(u, x, x_k, order);
  }
}

// Back substitution x_i = (x_i − Dot<0>(U(i, i+1..order), x(i+1..order)))
// / u_ii for i = order−1..0, each dot's eight-lane chunks (as two four-lane
// windows of the register-held x), reduction, four-lane step and fused
// scalar tail exactly Dot<0>'s.
template <int64_t P>
void BackSubstitute(const double* u, __m256d (&x)[kBlocks<P>],
                    int64_t order) {
  for (int64_t i = order - 1; i >= 0; --i) {
    const double* row = u + i * P + i + 1;
    const int64_t s = i + 1, len = order - s;
    YmmPair::V acc = YmmPair::Zero();
    int64_t r = 0;
    for (; r + 8 <= len; r += 8) {
      acc.lo = _mm256_fmadd_pd(_mm256_loadu_pd(row + r), Window(x, s + r),
                               acc.lo);
      acc.hi = _mm256_fmadd_pd(_mm256_loadu_pd(row + r + 4),
                               Window(x, s + r + 4), acc.hi);
    }
    double sum = YmmPair::Reduce(acc);
    if (r + 4 <= len) {
      sum += ReduceLanes4(
          _mm256_mul_pd(_mm256_loadu_pd(row + r), Window(x, s + r)));
      r += 4;
    }
    for (; r < len; ++r) sum = std::fma(row[r], Lane(x, s + r), sum);
    const __m256d x_i = _mm256_set1_pd((Lane(x, i) - sum) / u[i * P + i]);
    for (int w = 0; w < kBlocks<P>; ++w) {
      x[w] = _mm256_blendv_pd(x[w], x_i, BlockMask(i, i + 1, w));
    }
  }
}

template <int64_t P>
void CholeskySolveUpper(const double* u, const double* b, double* x,
                        int64_t order, int64_t n) {
  if constexpr (P == 0) {
    CholeskySolveUpperRowSuffixes<&Axpy<YmmPair, 0>, &Dot<YmmPair, 0>>(
        u, b, x, order, n);
  } else {
    __m256d v[kBlocks<P>];
    for (int w = 0; w < kBlocks<P>; ++w) {
      v[w] = _mm256_maskload_pd(
          b + 4 * w, _mm256_castpd_si256(BlockMask(0, order, w)));
    }
    ForwardGroup<P, 0>(u, v, b[0], order);
    BackSubstitute<P>(u, v, order);
    for (int w = 0; w < kBlocks<P>; ++w) {
      _mm256_maskstore_pd(x + 4 * w,
                          _mm256_castpd_si256(BlockMask(0, order, w)), v[w]);
    }
  }
}

template <int64_t P>
constexpr RankKernelTable kTable =
    SharedKernelTable<YmmPair, P>(KernelTier::kAvx2, &WeightedSyrkUpper<P>,
                                  &CholeskyUpper<P>, &CholeskySolveUpper<P>);

}  // namespace

const RankKernelTable& Avx2Table(int64_t padded_rank) {
  return DispatchPaddedRank(padded_rank,
                            [](auto tag) -> const RankKernelTable& {
                              return kTable<decltype(tag)::value>;
                            });
}

}  // namespace sns::codelets

#endif  // SNS_HAVE_X86_CODELETS
