// AVX-512F codelets for the rank-R kernel layer.
//
// Same contract and isolation rules as codelets_avx2.cpp (see its header
// comment); this TU is compiled with -mavx512f -mavx2 -mfma and reached
// only through the tier-resolved RankKernelTable after the cpuid probe
// confirmed avx512f. The kernels shared with the AVX2 TU
// (codelet_kernels.h) run here on one zmm per eight-lane block, so every
// slot but the SYRK and the register-held Gram solve is that header's
// code, and all 17 slots return the AVX2 table's bits.
//
// No 512-bit value is split with _mm512_extractf64x4_pd,
// _mm512_castpd512_pd256, _mm512_zextpd256_pd512 or _mm512_reduce_add_pd:
// GCC implements those through an _mm256_undefined_pd() merge source that
// -Wall reports as uninitialized in every instantiation. The helpers below
// use the zero-masked forms with a full mask instead, which compile to the
// same unmasked instructions; so do the exponential's clamp and shift and
// the Gram solve's lane broadcasts and tail loads.

#include "linalg/codelets/codelet_tables.h"

#ifdef SNS_HAVE_X86_CODELETS

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "linalg/codelets/codelet_kernels.h"

namespace sns::codelets {
namespace {

inline __m256d Lo256(__m512d x) {
  return _mm512_maskz_extractf64x4_pd(0xFF, x, 0);
}

inline __m256d Hi256(__m512d x) {
  return _mm512_maskz_extractf64x4_pd(0xFF, x, 1);
}

// The eight-lane block of codelet_kernels.h: one zmm.
struct Zmm {
  using V = __m512d;
  static V Zero() { return _mm512_setzero_pd(); }
  static V Set1(double x) { return _mm512_set1_pd(x); }
  static V Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, V v) { _mm512_storeu_pd(p, v); }
  static V Add(V a, V b) { return _mm512_add_pd(a, b); }
  static V Sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V Mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V Fmadd(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
  static V Fnmadd(V a, V b, V c) { return _mm512_fnmadd_pd(a, b, c); }
  static V Min(V a, V b) { return _mm512_maskz_min_pd(0xFF, a, b); }
  static V Max(V a, V b) { return _mm512_maskz_max_pd(0xFF, a, b); }
  static V Pow2(V t) {
    return _mm512_castsi512_pd(_mm512_maskz_slli_epi64(
        0xFF,
        _mm512_add_epi64(_mm512_castpd_si512(t),
                         _mm512_set1_epi64(exp_clamped::kExponentBias)),
        52));
  }
  static double Reduce(V v) { return ReduceLanes8(Lo256(v), Hi256(v)); }
  // A plain 256-bit load, zero-extended: a masked load would not be
  // forwarded a row that was stored just before.
  static V LoadLow(const double* p) {
    return _mm512_maskz_insertf64x4(0xFF, _mm512_setzero_pd(),
                                    _mm256_loadu_pd(p), 0);
  }
  static __m256d Low(V v) { return Lo256(v); }
  static V Blend(V v, uint32_t lanes, V x) {
    return _mm512_mask_mov_pd(v, static_cast<__mmask8>(lanes), x);
  }
  static __mmask8 First(int64_t count) {
    return static_cast<__mmask8>((1u << count) - 1u);
  }
  static V LoadFirst(const double* p, int64_t count) {
    return _mm512_maskz_loadu_pd(First(count), p);
  }
  static void StoreFirst(double* p, int64_t count, V v) {
    _mm512_mask_storeu_pd(p, First(count), v);
  }
};

// Block w of a P-lane row (see Zmm::LoadLow for the four-lane tail).
template <int64_t P>
inline __m512d LoadBlock(const double* row, int w) {
  if (8 * w + 8 <= P) return _mm512_loadu_pd(row + 8 * w);
  return Zmm::LoadLow(row + 8 * w);
}

// Weighted upper SYRK (see VecWeightedSyrkUpper and SyrkTile).
// Every element takes one FMA per cell, u·h_j + acc with u = weights[c] ·
// h_i rounded on its own, in cell order, exactly like Axpy. Cells go in
// chunks of 128, so a chunk's panel rows (and its staged u, at most 32 KiB
// of stack) stay cache-resident across the chunk's passes.
//
// P = 0 runs the shared 4-row tiles (codelet_kernels.h) of at most 32
// columns, each over the whole chunk.
//
// For P ≤ 32 a chunk first stages u_c = weights[c]·h_c, one multiply per
// block. The triangle's 4-row bands then run in as few passes over the
// chunk as the 32 zmm registers allow: band b holds rows [4b, 4b + 4) over
// columns [4b, P), (P − 4b)/8 zmm accumulators per row plus a ymm when
// P − 4b ≡ 4 (mod 8), and a pass takes consecutive bands while their
// blocks per row sum to at most kSyrkPassBlocks (4 accumulators and one
// column load per block: at most 30 registers, u broadcast from memory).
// At P = 20 that is bands {0, 1} with 20 accumulators, then {2, 3, 4} with
// 16. Rows from `rows` on are neither loaded nor stored.
constexpr int kSyrkPassBlocks = 6;

// Band B of a P-lane triangle: its accumulators, and one cell's update of
// them from the cell's panel row h and staged u.
template <int64_t P, int B>
struct SyrkBand {
  static constexpr int64_t kRow = 4 * B;  // First row, and first column.
  static constexpr int kZ = static_cast<int>((P - kRow) / 8);
  static constexpr bool kTail = (P - kRow) % 8 != 0;
  static constexpr int kZs = kZ > 0 ? kZ : 1;  // No zero-length arrays.
  __m512d z[4][kZs] = {};
  __m256d t[4] = {};

  void Load(const double* out, int64_t rows) {
    for (int r = 0; r < 4; ++r) {
      if (kRow + r >= rows) continue;
      const double* o = out + (kRow + r) * P + kRow;
      for (int v = 0; v < kZ; ++v) z[r][v] = _mm512_loadu_pd(o + 8 * v);
      if constexpr (kTail) t[r] = _mm256_loadu_pd(o + 8 * kZ);
    }
  }

  void Update(const double* h, const double* u) {
    __m512d x[kZs] = {};
    for (int v = 0; v < kZ; ++v) x[v] = _mm512_loadu_pd(h + kRow + 8 * v);
    const __m256d xt =
        kTail ? _mm256_loadu_pd(h + kRow + 8 * kZ) : _mm256_setzero_pd();
    for (int r = 0; r < 4; ++r) {
      for (int v = 0; v < kZ; ++v) {
        z[r][v] = _mm512_fmadd_pd(_mm512_set1_pd(u[kRow + r]), x[v], z[r][v]);
      }
      if constexpr (kTail) {
        t[r] = _mm256_fmadd_pd(_mm256_set1_pd(u[kRow + r]), xt, t[r]);
      }
    }
  }

  void Store(double* out, int64_t rows) const {
    for (int r = 0; r < 4; ++r) {
      if (kRow + r >= rows) continue;
      double* o = out + (kRow + r) * P + kRow;
      for (int v = 0; v < kZ; ++v) _mm512_storeu_pd(o + 8 * v, z[r][v]);
      if constexpr (kTail) _mm256_storeu_pd(o + 8 * kZ, t[r]);
    }
  }
};

template <int64_t P>
constexpr int SyrkBandBlocks(int b) {
  return static_cast<int>((P - 4 * b + 7) / 8);
}

// One past the last band of the pass that starts at band b0.
template <int64_t P>
constexpr int SyrkPassEnd(int b0) {
  int b = b0;
  for (int blocks = 0; b < P / 4; ++b) {
    blocks += SyrkBandBlocks<P>(b);
    if (blocks > kSyrkPassBlocks) break;
  }
  return b;
}

template <int64_t P, int B0, int... Is>
void SyrkPass(const double* panel, const double* u, int64_t cells,
              int64_t rows, double* out, std::integer_sequence<int, Is...>) {
  std::tuple<SyrkBand<P, B0 + Is>...> bands;
  std::apply([&](auto&... band) { (band.Load(out, rows), ...); }, bands);
  for (int64_t c = 0; c < cells; ++c) {
    std::apply(
        [&](auto&... band) { (band.Update(panel + c * P, u + c * P), ...); },
        bands);
  }
  std::apply([&](const auto&... band) { (band.Store(out, rows), ...); },
             bands);
}

// The passes from band B0 on, while they hold a row below `rows`.
template <int64_t P, int B0>
void SyrkPasses(const double* panel, const double* u, int64_t cells,
                int64_t rows, double* out) {
  constexpr int kEnd = SyrkPassEnd<P>(B0);
  SyrkPass<P, B0>(panel, u, cells, rows, out,
                  std::make_integer_sequence<int, kEnd - B0>{});
  if constexpr (kEnd < P / 4) {
    if (4 * kEnd < rows) SyrkPasses<P, kEnd>(panel, u, cells, rows, out);
  }
}

template <int64_t P>
void WeightedSyrkUpper(const double* panel, const double* weights,
                       int64_t cells, int64_t rows, double* out, int64_t n) {
  if constexpr (P == 0) {
    WeightedSyrkTiles<Zmm, 32>(panel, weights, cells, rows, out, n);
  } else {
    if (rows <= 0) return;
    constexpr int kZ = static_cast<int>(P / 8);
    constexpr bool kTail = P % 8 != 0;
    alignas(64) double u[kSyrkCellChunk * P];
    for (int64_t c0 = 0; c0 < cells; c0 += kSyrkCellChunk) {
      const int64_t chunk = std::min(kSyrkCellChunk, cells - c0);
      const double* p = panel + c0 * P;
      for (int64_t c = 0; c < chunk; ++c) {
        const double* h = p + c * P;
        double* uc = u + c * P;
        const double w = weights[c0 + c];
        for (int v = 0; v < kZ; ++v) {
          _mm512_storeu_pd(uc + 8 * v,
                           _mm512_mul_pd(_mm512_set1_pd(w),
                                         _mm512_loadu_pd(h + 8 * v)));
        }
        if constexpr (kTail) {
          _mm256_storeu_pd(uc + 8 * kZ,
                           _mm256_mul_pd(_mm256_set1_pd(w),
                                         _mm256_loadu_pd(h + 8 * kZ)));
        }
      }
      SyrkPasses<P, 0>(p, u, chunk, rows, out);
    }
  }
}

// ---------------------------------------------------------------------------
// Gram solve (see CholeskyUpperRowSuffixes and CholeskySolveUpperRowSuffixes
// in rank_dispatch.h). P = 0 runs those loops over this tier's Axpy<0> and
// Dot<0>. For P ≤ 32 a row of U, or x, lives in kBlocks<P> zmm registers
// (the last one holding a four-lane tail in its low half when P ≡ 4 mod 8),
// and every element takes the operations of those loops in their order, so
// the factor and the solution are theirs bit for bit:
//   - the factorization is up-looking: row i is loaded from a and takes its
//     updates k = 0..i−1 in k order, each a fused multiply-add by −u_ki
//     (masked off where u_ki == 0, the loop's skip), then the pivot test,
//     √pivot and the 1/√pivot row scale. Rows go in pairs, so the two
//     update chains overlap; the second row takes the first's update from
//     registers. A row is stored whole, with zeros below the diagonal and
//     from `order` on.
//   - forward elimination updates x's lanes (k, order) with one masked fused
//     multiply-add per block and step, as Axpy<0> does to the suffix;
//   - back substitution forms each suffix dot in Dot<0>'s grouping, from
//     eight-lane windows of the register-held x.

template <int64_t P>
constexpr int kBlocks = static_cast<int>((P + 7) / 8);

// The lanes [lo, hi) of a row (hi <= 32) that fall in eight-lane block w.
inline __mmask8 BlockMask(int64_t lo, int64_t hi, int w) {
  const uint64_t bits =
      ((uint64_t{1} << hi) - 1) & ~((uint64_t{1} << lo) - 1);
  return static_cast<__mmask8>(bits >> (8 * w));
}

template <int64_t P>
inline void StoreBlock(double* row, int w, __m512d v) {
  if (8 * w + 8 <= P) {
    _mm512_storeu_pd(row + 8 * w, v);
  } else {
    _mm256_storeu_pd(row + 8 * w, Lo256(v));
  }
}

// Every lane set to lane l (< 8) of v.
inline __m512d BroadcastLane(__m512d v, int64_t l) {
  return _mm512_maskz_permutexvar_pd(0xFF, _mm512_set1_epi64(l), v);
}

// acc += (−u)·src lane-wise with one rounding, unless u == 0.
inline __m512d UpdateUnlessZero(__m512d neg_u, __m512d src, __m512d acc) {
  const __mmask8 live =
      _mm512_cmp_pd_mask(neg_u, _mm512_setzero_pd(), _CMP_NEQ_UQ);
  return _mm512_mask3_fmadd_pd(neg_u, src, acc, live);
}

// Row i of the factorization once its updates are in, held in the blocks
// G.. of `acc` (its diagonal is in block G): the pivot test, then √pivot on
// the diagonal and the 1/√pivot scale on (i, order). Leaves the row as
// stored in `acc`.
template <int64_t P, int G>
inline bool FinishRow(__m512d (&acc)[kBlocks<P> - G], int64_t i,
                      int64_t order, double* row) {
  const double pivot = _mm512_cvtsd_f64(BroadcastLane(acc[0], i & 7));
  if (pivot <= 0.0 || !std::isfinite(pivot)) return false;
  const double diag = std::sqrt(pivot);
  const __m512d inv = _mm512_set1_pd(1.0 / diag);
  for (int w = 0; w < kBlocks<P> - G; ++w) {
    acc[w] = _mm512_mask_mov_pd(
        _mm512_maskz_mul_pd(BlockMask(i + 1, order, G + w), acc[w], inv),
        BlockMask(i, i + 1, G + w), _mm512_set1_pd(diag));
    StoreBlock<P>(row, G + w, acc[w]);
  }
  return true;
}

// Rows [8G, 8G + 8) ∩ [0, order) of the up-looking factorization, then the
// next group. Their lanes below block G are below the diagonal, so they
// are neither formed nor stored.
template <int64_t P, int G>
bool FactorizeGroup(const double* a, double* u, int64_t order) {
  constexpr int kN = kBlocks<P> - G;
  const int64_t end = std::min<int64_t>(order, 8 * G + 8);
  int64_t i = 8 * G;
  for (; i + 2 <= end; i += 2) {
    __m512d r0[kN], r1[kN];
    for (int w = 0; w < kN; ++w) {
      r0[w] = LoadBlock<P>(a + i * P, G + w);
      r1[w] = LoadBlock<P>(a + (i + 1) * P, G + w);
    }
    for (int64_t k = 0; k < i; ++k) {
      const double* uk = u + k * P;
      const __m512d n0 = _mm512_set1_pd(-uk[i]);
      const __m512d n1 = _mm512_set1_pd(-uk[i + 1]);
      for (int w = 0; w < kN; ++w) {
        const __m512d src = LoadBlock<P>(uk, G + w);
        r0[w] = UpdateUnlessZero(n0, src, r0[w]);
        r1[w] = UpdateUnlessZero(n1, src, r1[w]);
      }
    }
    if (!FinishRow<P, G>(r0, i, order, u + i * P)) return false;
    const __m512d n = _mm512_set1_pd(
        -_mm512_cvtsd_f64(BroadcastLane(r0[0], (i + 1) & 7)));
    for (int w = 0; w < kN; ++w) r1[w] = UpdateUnlessZero(n, r0[w], r1[w]);
    if (!FinishRow<P, G>(r1, i + 1, order, u + (i + 1) * P)) return false;
  }
  if (i < end) {
    __m512d r0[kN];
    for (int w = 0; w < kN; ++w) r0[w] = LoadBlock<P>(a + i * P, G + w);
    for (int64_t k = 0; k < i; ++k) {
      const double* uk = u + k * P;
      const __m512d n0 = _mm512_set1_pd(-uk[i]);
      for (int w = 0; w < kN; ++w) {
        r0[w] = UpdateUnlessZero(n0, LoadBlock<P>(uk, G + w), r0[w]);
      }
    }
    if (!FinishRow<P, G>(r0, i, order, u + i * P)) return false;
  }
  if constexpr (G + 1 < kBlocks<P>) {
    if (order > 8 * G + 8) return FactorizeGroup<P, G + 1>(a, u, order);
  }
  return true;
}

template <int64_t P>
bool CholeskyUpper(const double* a, double* u, int64_t order, int64_t n) {
  if constexpr (P == 0) {
    return CholeskyUpperRowSuffixes<&Axpy<Zmm, 0>>(a, u, order, n);
  } else {
    return FactorizeGroup<P, 0>(a, u, order);
  }
}

// Block w of a register-held vector, zero past its last block.
template <int kB>
inline __m512d BlockOrZero(const __m512d (&x)[kB], int w) {
  return w < kB ? x[w] : _mm512_setzero_pd();
}

// The block holding lane j.
template <int kB>
inline __m512d BlockOfLane(const __m512d (&x)[kB], int64_t j) {
  __m512d block = x[0];
  for (int w = 1; w < kB; ++w) {
    block = _mm512_mask_mov_pd(block, (j >> 3) == w ? 0xFF : 0, x[w]);
  }
  return block;
}

template <int kB>
inline double Lane(const __m512d (&x)[kB], int64_t j) {
  return _mm512_cvtsd_f64(BroadcastLane(BlockOfLane(x, j), j & 7));
}

// Lanes [start, start + 8) of a register-held vector (zero past its end).
template <int kB>
inline __m512d Window(const __m512d (&x)[kB], int64_t start) {
  __m512d lo = x[0];
  __m512d hi = BlockOrZero(x, 1);
  for (int w = 1; w < kB; ++w) {
    const __mmask8 pick = (start >> 3) == w ? 0xFF : 0;
    lo = _mm512_mask_mov_pd(lo, pick, x[w]);
    hi = _mm512_mask_mov_pd(hi, pick, BlockOrZero(x, w + 1));
  }
  const __m512i idx = _mm512_add_epi64(_mm512_set1_epi64(start & 7),
                                       _mm512_setr_epi64(0, 1, 2, 3, 4, 5,
                                                         6, 7));
  return _mm512_permutex2var_pd(lo, idx, hi);
}

// Forward elimination steps k in [8G, 8G + 8) ∩ [0, order), then the next
// group: y_k = x_k / u_kk, and x(k+1..order) += (−y_k)·U(k, k+1..order).
// x_k arrives as a scalar: each step also forms x_{k+1} from its lane's
// value before the step, with the fused multiply-add that lane gets, so
// the step-to-step chain is a divide and one fused multiply-add.
template <int64_t P, int G>
void ForwardGroup(const double* u, __m512d (&x)[kBlocks<P>], double x_k,
                  int64_t order) {
  const int64_t end = std::min<int64_t>(order, std::min<int64_t>(P, 8 * G + 8));
  for (int64_t k = 8 * G; k < end; ++k) {
    const double* uk = u + k * P;
    const double y = x_k / uk[k];
    if (k + 1 < order) x_k = std::fma(-y, uk[k + 1], Lane(x, k + 1));
    x[G] = _mm512_mask_mov_pd(x[G], BlockMask(k, k + 1, G),
                              _mm512_set1_pd(y));
    const __m512d neg_y = _mm512_set1_pd(-y);
    for (int w = G; w < kBlocks<P>; ++w) {
      x[w] = _mm512_mask3_fmadd_pd(neg_y, LoadBlock<P>(uk, w), x[w],
                                   BlockMask(k + 1, order, w));
    }
  }
  if constexpr (G + 1 < kBlocks<P>) {
    if (order > 8 * G + 8) ForwardGroup<P, G + 1>(u, x, x_k, order);
  }
}

// Back substitution x_i = (x_i − Dot<0>(U(i, i+1..order), x(i+1..order)))
// / u_ii for i = order−1..0, each dot's chunks, reduction, four-lane tail
// and fused scalar tail exactly Dot<0>'s.
template <int64_t P>
void BackSubstitute(const double* u, __m512d (&x)[kBlocks<P>],
                    int64_t order) {
  for (int64_t i = order - 1; i >= 0; --i) {
    const double* row = u + i * P;
    const int64_t s = i + 1, len = order - s;
    __m512d acc = _mm512_setzero_pd();
    int64_t r = 0;
    for (; r + 8 <= len; r += 8) {
      acc = _mm512_fmadd_pd(_mm512_loadu_pd(row + s + r), Window(x, s + r),
                            acc);
    }
    double sum = Zmm::Reduce(acc);
    if (r + 4 <= len) {
      sum += ReduceLanes4(_mm256_mul_pd(_mm256_loadu_pd(row + s + r),
                                        Lo256(Window(x, s + r))));
      r += 4;
    }
    for (; r < len; ++r) sum = std::fma(row[s + r], Lane(x, s + r), sum);
    const __m512d x_i = _mm512_set1_pd((Lane(x, i) - sum) / row[i]);
    for (int w = 0; w < kBlocks<P>; ++w) {
      x[w] = _mm512_mask_mov_pd(x[w], BlockMask(i, i + 1, w), x_i);
    }
  }
}

template <int64_t P>
void CholeskySolveUpper(const double* u, const double* b, double* x,
                        int64_t order, int64_t n) {
  if constexpr (P == 0) {
    CholeskySolveUpperRowSuffixes<&Axpy<Zmm, 0>, &Dot<Zmm, 0>>(u, b, x, order,
                                                              n);
  } else {
    __m512d v[kBlocks<P>];
    for (int w = 0; w < kBlocks<P>; ++w) {
      v[w] = _mm512_maskz_loadu_pd(BlockMask(0, order, w), b + 8 * w);
    }
    ForwardGroup<P, 0>(u, v, b[0], order);
    BackSubstitute<P>(u, v, order);
    for (int w = 0; w < kBlocks<P>; ++w) {
      _mm512_mask_storeu_pd(x + 8 * w, BlockMask(0, order, w), v[w]);
    }
  }
}

template <int64_t P>
constexpr RankKernelTable kTable =
    SharedKernelTable<Zmm, P>(KernelTier::kAvx512, &WeightedSyrkUpper<P>,
                              &CholeskyUpper<P>, &CholeskySolveUpper<P>);

}  // namespace

const RankKernelTable& Avx512Table(int64_t padded_rank) {
  return DispatchPaddedRank(padded_rank,
                            [](auto tag) -> const RankKernelTable& {
                              return kTable<decltype(tag)::value>;
                            });
}

}  // namespace sns::codelets

#endif  // SNS_HAVE_X86_CODELETS
