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
// triangular Cholesky loops, whose row suffixes are unaligned, so every
// vector access uses unaligned loads/stores.
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
                                    &ExpClampedKernel};

}  // namespace

const RankKernelTable& Avx2Table(int64_t padded_rank) {
  return DispatchPaddedRank(padded_rank,
                            [](auto tag) -> const RankKernelTable& {
                              return kTable<decltype(tag)::value>;
                            });
}

}  // namespace sns::codelets

#endif  // SNS_HAVE_X86_CODELETS
