// AVX2+FMA codelets for the rank-R kernel layer.
//
// This TU is compiled with -mavx2 -mfma (see CMakeLists.txt) and is only
// reachable through the tier-resolved RankKernelTable, after the cpuid
// probe (common/cpu_features.h) confirmed avx2+fma — never from baseline
// code paths. Everything except the exported Avx2Table getter lives in an
// anonymous namespace so the linker cannot substitute AVX2-compiled inline
// symbols into TUs built for baseline x86-64.
//
// Numeric contract (see rank_dispatch.h): elementwise kernels (fill, copy,
// mul, mul_accum) are bitwise identical to the generic tier — each lane is
// a single correctly-rounded operation — and so is exp_clamped, which
// spells out the generic tier's unfused multiplies and adds.
// Multiply-accumulate kernels (axpy, fma3, gram_row_delta,
// scaled_diff_accum, dot and their panel forms) use fused multiply-adds,
// which drop one rounding
// per element relative to an uncontracted generic build, so they agree to
// a few ulps rather than bitwise. The dot kernel keeps the generic tier's
// fixed four-lane reduction grouping (s0+s2)+(s1+s3): vector lane l holds
// partial sum s_l, so the summation ORDER matches and only FMA contraction
// differs.
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
// every build type. The std::fma calls sit where GCC 12 -O3 contracted the
// tails before that flag, so Release trajectories kept their bits.

#include "linalg/codelets/codelet_tables.h"

#ifdef SNS_HAVE_X86_CODELETS

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace sns::codelets {
namespace {

template <int64_t P>
inline int64_t Trip(int64_t n) {
  return P > 0 ? P : n;
}

template <int64_t P>
void Fill(double* dst, double value, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m256d v = _mm256_set1_pd(value);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) _mm256_storeu_pd(dst + r, v);
  if constexpr (P == 0) {
    for (; r < m; ++r) dst[r] = value;
  }
}

template <int64_t P>
void Copy(const double* src, double* dst, int64_t n) {
  const int64_t m = Trip<P>(n);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    _mm256_storeu_pd(dst + r, _mm256_loadu_pd(src + r));
  }
  if constexpr (P == 0) {
    for (; r < m; ++r) dst[r] = src[r];
  }
}

template <int64_t P>
void Axpy(double alpha, const double* x, double* y, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m256d va = _mm256_set1_pd(alpha);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const __m256d vy =
        _mm256_fmadd_pd(va, _mm256_loadu_pd(x + r), _mm256_loadu_pd(y + r));
    _mm256_storeu_pd(y + r, vy);
  }
  if constexpr (P == 0) {
    for (; r < m; ++r) y[r] = std::fma(alpha, x[r], y[r]);
  }
}

template <int64_t P>
void Mul(const double* a, const double* b, double* out, int64_t n) {
  const int64_t m = Trip<P>(n);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    _mm256_storeu_pd(
        out + r, _mm256_mul_pd(_mm256_loadu_pd(a + r), _mm256_loadu_pd(b + r)));
  }
  if constexpr (P == 0) {
    for (; r < m; ++r) out[r] = a[r] * b[r];
  }
}

template <int64_t P>
void MulAccum(double* dst, const double* src, int64_t n) {
  const int64_t m = Trip<P>(n);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    _mm256_storeu_pd(dst + r, _mm256_mul_pd(_mm256_loadu_pd(dst + r),
                                            _mm256_loadu_pd(src + r)));
  }
  if constexpr (P == 0) {
    for (; r < m; ++r) dst[r] *= src[r];
  }
}

template <int64_t P>
void Fma3(double v, const double* a, const double* b, double* out, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m256d vv = _mm256_set1_pd(v);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const __m256d prod =
        _mm256_mul_pd(_mm256_loadu_pd(a + r), _mm256_loadu_pd(b + r));
    _mm256_storeu_pd(out + r,
                     _mm256_fmadd_pd(vv, prod, _mm256_loadu_pd(out + r)));
  }
  if constexpr (P == 0) {
    for (; r < m; ++r) out[r] = std::fma(v, a[r] * b[r], out[r]);
  }
}

template <int64_t P>
double Dot(const double* a, const double* b, int64_t n) {
  const int64_t m = Trip<P>(n);
  const int64_t m4 = m - m % 4;
  __m256d acc = _mm256_setzero_pd();
  int64_t r = 0;
  for (; r < m4; r += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + r), _mm256_loadu_pd(b + r), acc);
  }
  // (s0+s2)+(s1+s3): lane l of acc is exactly the generic tier's s_l.
  const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                  _mm256_extractf128_pd(acc, 1));
  double sum = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  if constexpr (P == 0) {
    // The roundings GCC 12 -O3 gave this tail before -ffp-contract=off:
    // products added pairwise in order, an odd last one fused.
    for (; r + 2 <= m; r += 2) {
      sum += a[r] * b[r];
      sum += a[r + 1] * b[r + 1];
    }
    if (r < m) sum = std::fma(a[r], b[r], sum);
  }
  return sum;
}

template <int64_t P>
void GramRowDelta(double new_i, const double* new_row, double old_i,
                  const double* old_row, double* g, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m256d vn = _mm256_set1_pd(new_i);
  const __m256d vo = _mm256_set1_pd(old_i);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    // t = new_i·new − old_i·old, then g += t: one FMA + one FNMA keeps the
    // subtraction inside the delta like the generic expression.
    __m256d t = _mm256_mul_pd(vn, _mm256_loadu_pd(new_row + r));
    t = _mm256_fnmadd_pd(vo, _mm256_loadu_pd(old_row + r), t);
    _mm256_storeu_pd(g + r, _mm256_add_pd(_mm256_loadu_pd(g + r), t));
  }
  if constexpr (P == 0) {
    for (; r < m; ++r) {
      g[r] += std::fma(new_i, new_row[r], -(old_i * old_row[r]));
    }
  }
}

template <int64_t P>
void ScaledDiffAccum(double p, const double* new_row, const double* prev_row,
                     double* g, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m256d vp = _mm256_set1_pd(p);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(new_row + r),
                                    _mm256_loadu_pd(prev_row + r));
    _mm256_storeu_pd(g + r, _mm256_fmadd_pd(vp, d, _mm256_loadu_pd(g + r)));
  }
  if constexpr (P == 0) {
    for (; r < m; ++r) g[r] = std::fma(p, new_row[r] - prev_row[r], g[r]);
  }
}

// Weighted upper SYRK (see VecWeightedSyrkUpper). Register tiles of NR
// rows × W columns stay in ymm accumulators across a chunk of cells; each
// element takes one FMA per cell, in cell order, exactly like Axpy — so the
// result is bitwise the per-cell AddOuterProduct accumulation. The 4-row
// tiles use 12 accumulators + 3 column loads + 1 broadcast = 16 ymm.
constexpr int64_t kSyrkMaxWidth = 12;
constexpr int64_t kSyrkCellChunk = 128;  // Keeps a chunk's panel L1-resident.

template <int NR, int W>
void SyrkTile(const double* panel, const double* weights, int64_t cells,
              int64_t m, int64_t row0, int64_t col0, double* out) {
  constexpr int kV = W / 4;
  __m256d acc[NR][kV] = {};
  for (int r = 0; r < NR; ++r) {
    for (int v = 0; v < kV; ++v) {
      acc[r][v] = _mm256_loadu_pd(out + (row0 + r) * m + col0 + 4 * v);
    }
  }
  for (int64_t c = 0; c < cells; ++c) {
    const double* h = panel + c * m;
    __m256d x[kV] = {};
    for (int v = 0; v < kV; ++v) x[v] = _mm256_loadu_pd(h + col0 + 4 * v);
    for (int r = 0; r < NR; ++r) {
      const __m256d u = _mm256_set1_pd(weights[c] * h[row0 + r]);
      for (int v = 0; v < kV; ++v) {
        acc[r][v] = _mm256_fmadd_pd(u, x[v], acc[r][v]);
      }
    }
  }
  for (int r = 0; r < NR; ++r) {
    for (int v = 0; v < kV; ++v) {
      _mm256_storeu_pd(out + (row0 + r) * m + col0 + 4 * v, acc[r][v]);
    }
  }
}

template <int NR>
void SyrkTileOfWidth(int64_t width, const double* panel,
                     const double* weights, int64_t cells, int64_t m,
                     int64_t row0, int64_t col0, double* out) {
  switch (width) {
    case 4:
      return SyrkTile<NR, 4>(panel, weights, cells, m, row0, col0, out);
    case 8:
      return SyrkTile<NR, 8>(panel, weights, cells, m, row0, col0, out);
    default:
      return SyrkTile<NR, 12>(panel, weights, cells, m, row0, col0, out);
  }
}

template <int64_t P>
void WeightedSyrkUpper(const double* panel, const double* weights,
                       int64_t cells, int64_t rows, double* out, int64_t n) {
  const int64_t m = Trip<P>(n);
  for (int64_t c0 = 0; c0 < cells; c0 += kSyrkCellChunk) {
    const int64_t chunk = std::min(kSyrkCellChunk, cells - c0);
    const double* p = panel + c0 * m;
    const double* w = weights + c0;
    for (int64_t i0 = 0; i0 < rows; i0 += 4) {
      for (int64_t j0 = i0; j0 < m; j0 += kSyrkMaxWidth) {
        const int64_t width = std::min(kSyrkMaxWidth, m - j0);
        if (i0 + 4 <= rows) {
          SyrkTileOfWidth<4>(width, p, w, chunk, m, i0, j0, out);
        } else {
          for (int64_t i = i0; i < rows; ++i) {
            SyrkTileOfWidth<1>(width, p, w, chunk, m, i, j0, out);
          }
        }
      }
    }
  }
}

// One coordinate-descent entry from its dot: ((numerator − (dot − row·c))
// / c) clipped, each operation rounded on its own as in the portable
// sources (no contraction in this TU).
inline double CoordinateValue(double dot, double row_k, double c_k,
                              double numerator_k, double clip_min,
                              double clip_max) {
  double value = (numerator_k - (dot - row_k * c_k)) / c_k;
  if (value > clip_max) {
    value = clip_max;
  } else if (value < clip_min) {
    value = clip_min;
  }
  return value;
}

// Clipped coordinate descent (see VecCoordinateDescent). For P ≤ 32 the row
// lives in P/4 ymm registers and lane k is blended in place, so no dot
// reloads a lane the step before it just stored; each dot is the fmadd
// chain and (s0+s2)+(s1+s3) reduction of Dot<P>. P = 0 loops over Dot<0>.
template <int64_t P>
void CoordinateDescent(double* row, int64_t rank, const double* hq,
                       const double* numerator, double clip_min,
                       double clip_max, int64_t n) {
  if constexpr (P == 0) {
    for (int64_t k = 0; k < rank; ++k) {
      const double* hq_k = hq + k * n;
      const double c_k = hq_k[k];
      if (!(c_k > 1e-300)) continue;
      row[k] = CoordinateValue(Dot<0>(row, hq_k, n), row[k], c_k,
                               numerator[k], clip_min, clip_max);
    }
  } else {
    constexpr int kRegs = static_cast<int>(P / 4);
    __m256d r[kRegs];
    for (int v = 0; v < kRegs; ++v) r[v] = _mm256_loadu_pd(row + 4 * v);
    for (int64_t k = 0; k < rank; ++k) {
      const double* hq_k = hq + k * P;
      const double c_k = hq_k[k];
      if (!(c_k > 1e-300)) continue;
      __m256d acc = _mm256_setzero_pd();
      for (int v = 0; v < kRegs; ++v) {
        acc = _mm256_fmadd_pd(r[v], _mm256_loadu_pd(hq_k + 4 * v), acc);
      }
      const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                      _mm256_extractf128_pd(acc, 1));
      const double dot =
          _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
      // Lane k has not been written yet, so memory still holds row[k].
      const __m256d value = _mm256_set1_pd(CoordinateValue(
          dot, row[k], c_k, numerator[k], clip_min, clip_max));
      const __m256i lane = _mm256_set1_epi64x(k);
      for (int v = 0; v < kRegs; ++v) {
        const __m256i ids = _mm256_setr_epi64x(4 * v, 4 * v + 1, 4 * v + 2,
                                               4 * v + 3);
        r[v] = _mm256_blendv_pd(
            r[v], value, _mm256_castsi256_pd(_mm256_cmpeq_epi64(ids, lane)));
      }
    }
    for (int v = 0; v < kRegs; ++v) _mm256_storeu_pd(row + 4 * v, r[v]);
  }
}

// The GCP Newton panel passes (see VecPanelDots, VecPanelAxpy): direct,
// inlinable calls of this tier's Dot<P> and Axpy<P> per cell, so each
// result is theirs bit for bit without an indirect call per cell.
template <int64_t P>
void PanelDots(const double* panel, const double* v, int64_t cells,
               double* out, int64_t n) {
  const int64_t m = Trip<P>(n);
  for (int64_t c = 0; c < cells; ++c) out[c] = Dot<P>(panel + c * m, v, n);
}

template <int64_t P>
void PanelAxpy(const double* weights, const double* panel, int64_t cells,
               double* y, int64_t n) {
  const int64_t m = Trip<P>(n);
  for (int64_t c = 0; c < cells; ++c) {
    Axpy<P>(weights[c], panel + c * m, y, n);
  }
}

// GCP Newton staging (see VecGatherHadamardDots). For P ≤ 32 a cell's
// Hadamard row is formed in P/4 ymm registers, one multiply per factor row
// and block, stored to the panel and dotted with the register-held v in
// Dot<P>'s chain and reduction. P = 0 runs Copy/Mul/MulAccum and Dot<0>.
template <int64_t P>
void GatherHadamardDots(const double* const* rows, int64_t count,
                        int64_t cells, const double* v, double* panel,
                        double* dots, int64_t n) {
  if constexpr (P == 0) {
    for (int64_t c = 0; c < cells; ++c) {
      const double* const* r = rows + c * count;
      double* h = panel + c * n;
      if (count == 1) {
        Copy<0>(r[0], h, n);
      } else {
        Mul<0>(r[0], r[1], h, n);
        for (int64_t k = 2; k < count; ++k) MulAccum<0>(h, r[k], n);
      }
      dots[c] = Dot<0>(h, v, n);
    }
  } else {
    constexpr int kRegs = static_cast<int>(P / 4);
    __m256d vv[kRegs];
    for (int b = 0; b < kRegs; ++b) vv[b] = _mm256_loadu_pd(v + 4 * b);
    for (int64_t c = 0; c < cells; ++c) {
      const double* const* r = rows + c * count;
      __m256d h[kRegs];
      for (int b = 0; b < kRegs; ++b) h[b] = _mm256_loadu_pd(r[0] + 4 * b);
      for (int64_t k = 1; k < count; ++k) {
        for (int b = 0; b < kRegs; ++b) {
          h[b] = _mm256_mul_pd(h[b], _mm256_loadu_pd(r[k] + 4 * b));
        }
      }
      __m256d acc = _mm256_setzero_pd();
      for (int b = 0; b < kRegs; ++b) {
        _mm256_storeu_pd(panel + c * P + 4 * b, h[b]);
        acc = _mm256_fmadd_pd(h[b], vv[b], acc);
      }
      const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                      _mm256_extractf128_pd(acc, 1));
      dots[c] = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
    }
  }
}

// ExpClamped over four lanes (see rank_dispatch.h): separate multiplies and
// adds, never fused, so every lane equals the scalar form bitwise. The
// clamp keeps x in max_pd's and min_pd's second operand, the one they
// return when either input is a NaN.
inline __m256d ExpClamped4(__m256d x) {
  using namespace exp_clamped;
  x = _mm256_min_pd(_mm256_set1_pd(kBound),
                    _mm256_max_pd(_mm256_set1_pd(-kBound), x));
  const __m256d shifter = _mm256_set1_pd(kShifter);
  const __m256d t = _mm256_add_pd(_mm256_mul_pd(x, _mm256_set1_pd(kLog2e)),
                                  shifter);
  const __m256d k = _mm256_sub_pd(t, shifter);
  const __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(x, _mm256_mul_pd(k, _mm256_set1_pd(kLn2Hi))),
      _mm256_mul_pd(k, _mm256_set1_pd(kLn2Lo)));
  __m256d q = _mm256_set1_pd(kCoeffs[kNumCoeffs - 1]);
  for (int i = kNumCoeffs - 2; i >= 0; --i) {
    q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(kCoeffs[i]));
  }
  const __m256d p = _mm256_add_pd(r, _mm256_mul_pd(_mm256_mul_pd(r, r), q));
  const __m256i scale = _mm256_slli_epi64(
      _mm256_add_epi64(_mm256_castpd_si256(t),
                       _mm256_set1_epi64x(kExponentBias)),
      52);
  return _mm256_mul_pd(_mm256_add_pd(_mm256_set1_pd(1.0), p),
                       _mm256_castsi256_pd(scale));
}

// Elementwise over `count` values: full four-lane blocks, then one masked
// block for the remainder (its masked-off lanes compute e^0 and are never
// stored).
void ExpClampedKernel(const double* x, double* out, int64_t count) {
  int64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    _mm256_storeu_pd(out + i, ExpClamped4(_mm256_loadu_pd(x + i)));
  }
  if (i < count) {
    const __m256i mask = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(count - i), _mm256_setr_epi64x(0, 1, 2, 3));
    _mm256_maskstore_pd(out + i, mask,
                        ExpClamped4(_mm256_maskload_pd(x + i, mask)));
  }
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
//   - back substitution forms each suffix dot in Dot<0>'s grouping, from
//     four-lane windows of the register-held x.

template <int64_t P>
constexpr int kBlocks = static_cast<int>(P / 4);

// All-ones in the lanes [lo, hi) of a row that fall in four-lane block w.
inline __m256d BlockMask(int64_t lo, int64_t hi, int w) {
  const __m256i ids = _mm256_add_epi64(_mm256_set1_epi64x(4 * w),
                                       _mm256_setr_epi64x(0, 1, 2, 3));
  return _mm256_castsi256_pd(
      _mm256_andnot_si256(_mm256_cmpgt_epi64(_mm256_set1_epi64x(lo), ids),
                          _mm256_cmpgt_epi64(_mm256_set1_epi64x(hi), ids)));
}

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
    return CholeskyUpperRowSuffixes<&Axpy<0>>(a, u, order, n);
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
// / u_ii for i = order−1..0, each dot's chunks, reduction and paired scalar
// tail exactly Dot<0>'s.
template <int64_t P>
void BackSubstitute(const double* u, __m256d (&x)[kBlocks<P>],
                    int64_t order) {
  for (int64_t i = order - 1; i >= 0; --i) {
    const double* row = u + i * P + i + 1;
    const int64_t s = i + 1, len = order - s, len4 = len - len % 4;
    __m256d acc = _mm256_setzero_pd();
    int64_t r = 0;
    for (; r < len4; r += 4) {
      acc = _mm256_fmadd_pd(_mm256_loadu_pd(row + r), Window(x, s + r), acc);
    }
    const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                    _mm256_extractf128_pd(acc, 1));
    double sum = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
    for (; r + 2 <= len; r += 2) {
      sum += row[r] * Lane(x, s + r);
      sum += row[r + 1] * Lane(x, s + r + 1);
    }
    if (r < len) sum = std::fma(row[r], Lane(x, s + r), sum);
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
    CholeskySolveUpperRowSuffixes<&Axpy<0>, &Dot<0>>(u, b, x, order, n);
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
constexpr RankKernelTable kTable = {KernelTier::kAvx2,
                                    P,
                                    &Fill<P>,
                                    &Copy<P>,
                                    &Axpy<P>,
                                    &Mul<P>,
                                    &MulAccum<P>,
                                    &Fma3<P>,
                                    &Dot<P>,
                                    &GramRowDelta<P>,
                                    &ScaledDiffAccum<P>,
                                    &WeightedSyrkUpper<P>,
                                    &CoordinateDescent<P>,
                                    &PanelDots<P>,
                                    &PanelAxpy<P>,
                                    &GatherHadamardDots<P>,
                                    &ExpClampedKernel,
                                    &CholeskyUpper<P>,
                                    &CholeskySolveUpper<P>};

}  // namespace

const RankKernelTable& Avx2Table(int64_t padded_rank) {
  return DispatchPaddedRank(padded_rank,
                            [](auto tag) -> const RankKernelTable& {
                              return kTable<decltype(tag)::value>;
                            });
}

}  // namespace sns::codelets

#endif  // SNS_HAVE_X86_CODELETS
