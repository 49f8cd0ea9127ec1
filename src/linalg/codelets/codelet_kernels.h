// The codelet kernels of both intrinsic TUs, written once: every table slot
// but the SYRK, whose tiles and register bands each TU picks for itself.
//
// Each kernel is a template over an eight-double block type B: one zmm in
// codelets_avx512.cpp, a pair of ymm registers (lanes 0–3 and 4–7) in
// codelets_avx2.cpp. The register-held Gram solve at the end is the one
// exception: it holds its rows in four-lane ymm blocks on both tiers and
// uses B only for its P = 0 row-suffix loops, since a ymm solve ran as
// fast end to end as a zmm one.
//
// A padded rank is a multiple of 4 doubles, not 8, so a kernel runs B over
// the full eight-lane blocks, then at most one four-lane step through Ymm
// below (padded rank 20 = 2×8 + 4), and the P = 0 runtime-length
// instantiations add a scalar tail for the unaligned suffixes of the Gram
// solve's row-suffix loops, fused exactly where it calls std::fma. Every
// lane of both block types takes the same operations in the same order, so
// the two TUs compute the same bits: a dot keeps eight partial sums,
// reduced in ReduceLanes8's order, adds the four-lane step's product
// through ReduceLanes4, then runs the fused tail in order.
//
// Everything here sits in an anonymous namespace: each TU compiles its own
// copy under its own -m flags, so no wide-vector symbol can leak into
// baseline TUs through the linker (see codelet_tables.h). The library,
// these TUs included, is compiled with -ffp-contract=off, so a multiply-add
// is fused only where an intrinsic or std::fma says so.
//
// A block type B provides, as static members:
//   V                      the eight-double value type;
//   Zero, Set1, Load, Store (unaligned), Add, Sub, Mul;
//   Fmadd(a, b, c)         a·b + c with one rounding;
//   Fnmadd(a, b, c)        c − a·b with one rounding;
//   Min(a, b), Max(a, b)   b when either operand is a NaN (as min_pd/max_pd);
//   Pow2(t)                the exponential's 2^k from the shifted t;
//   Reduce(v)              ReduceLanes8 of the eight lanes;
//   LoadFirst(p, count), StoreFirst(p, count, v)
//                          the first count (1..7) lanes; the others load 0
//                          and are not stored.

#ifndef SLICENSTITCH_LINALG_CODELETS_CODELET_KERNELS_H_
#define SLICENSTITCH_LINALG_CODELETS_CODELET_KERNELS_H_

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "linalg/rank_dispatch.h"

namespace sns::codelets {
namespace {

// Horizontal sum of eight lanes in GCC's _mm512_reduce_add_pd order: the
// 256-bit halves added, then the 128-bit halves of that, then the pair.
// Spelled out, so clang reduces in the same order.
inline double ReduceLanes8(__m256d lo, __m256d hi) {
  const __m256d quad = _mm256_add_pd(hi, lo);
  const __m128d pair = _mm_add_pd(_mm256_extractf128_pd(quad, 1),
                                  _mm256_castpd256_pd128(quad));
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

// Horizontal sum of four lanes: (l0 + l2) + (l1 + l3).
inline double ReduceLanes4(__m256d p) {
  const __m128d pair =
      _mm_add_pd(_mm256_castpd256_pd128(p), _mm256_extractf128_pd(p, 1));
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

// The four-lane step: the elementwise arithmetic of the block interface.
struct Ymm {
  using V = __m256d;
  static V Zero() { return _mm256_setzero_pd(); }
  static V Set1(double x) { return _mm256_set1_pd(x); }
  static V Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static V Add(V a, V b) { return _mm256_add_pd(a, b); }
  static V Sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V Fmadd(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  static V Fnmadd(V a, V b, V c) { return _mm256_fnmadd_pd(a, b, c); }
};

// Runs body(B{}, r) on each full eight-lane block at r, then body(Ymm{}, r)
// on a remaining four-lane block, then (P = 0 only) tail(r) per element.
template <class B, int64_t P, class Body, class Tail>
inline void ForEachBlock(int64_t n, Body&& body,
                         [[maybe_unused]] Tail&& tail) {
  const int64_t m = TripCount<P>(n);
  int64_t r = 0;
  for (; r + 8 <= m; r += 8) body(B{}, r);
  if (r + 4 <= m) {
    body(Ymm{}, r);
    r += 4;
  }
  if constexpr (P == 0) {
    for (; r < m; ++r) tail(r);
  }
}

template <class B, int64_t P>
void Fill(double* dst, double value, int64_t n) {
  ForEachBlock<B, P>(
      n, [&](auto w, int64_t r) { w.Store(dst + r, w.Set1(value)); },
      [&](int64_t r) { dst[r] = value; });
}

template <class B, int64_t P>
void Copy(const double* src, double* dst, int64_t n) {
  ForEachBlock<B, P>(
      n, [&](auto w, int64_t r) { w.Store(dst + r, w.Load(src + r)); },
      [&](int64_t r) { dst[r] = src[r]; });
}

template <class B, int64_t P>
void Axpy(double alpha, const double* x, double* y, int64_t n) {
  ForEachBlock<B, P>(
      n,
      [&](auto w, int64_t r) {
        w.Store(y + r, w.Fmadd(w.Set1(alpha), w.Load(x + r), w.Load(y + r)));
      },
      [&](int64_t r) { y[r] = std::fma(alpha, x[r], y[r]); });
}

template <class B, int64_t P>
void Mul(const double* a, const double* b, double* out, int64_t n) {
  ForEachBlock<B, P>(
      n,
      [&](auto w, int64_t r) {
        w.Store(out + r, w.Mul(w.Load(a + r), w.Load(b + r)));
      },
      [&](int64_t r) { out[r] = a[r] * b[r]; });
}

template <class B, int64_t P>
void MulAccum(double* dst, const double* src, int64_t n) {
  ForEachBlock<B, P>(
      n,
      [&](auto w, int64_t r) {
        w.Store(dst + r, w.Mul(w.Load(dst + r), w.Load(src + r)));
      },
      [&](int64_t r) { dst[r] *= src[r]; });
}

template <class B, int64_t P>
void Fma3(double v, const double* a, const double* b, double* out, int64_t n) {
  ForEachBlock<B, P>(
      n,
      [&](auto w, int64_t r) {
        const auto prod = w.Mul(w.Load(a + r), w.Load(b + r));
        w.Store(out + r, w.Fmadd(w.Set1(v), prod, w.Load(out + r)));
      },
      [&](int64_t r) { out[r] = std::fma(v, a[r] * b[r], out[r]); });
}

// Q ← Q − p'p + a'a (see VecGramRankTwoUpdate): each delta is a multiply
// and a fused negated multiply-add, subtracted inside the delta.
template <class B, int64_t P>
void GramRankTwoUpdate(const double* new_row, const double* old_row,
                       double* gram, int64_t rows, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t i = 0; i < rows; ++i) {
    double* g = gram + i * m;
    const double new_i = new_row[i], old_i = old_row[i];
    ForEachBlock<B, P>(
        n,
        [&](auto w, int64_t r) {
          const auto t = w.Fnmadd(w.Set1(old_i), w.Load(old_row + r),
                                  w.Mul(w.Set1(new_i), w.Load(new_row + r)));
          w.Store(g + r, w.Add(w.Load(g + r), t));
        },
        [&](int64_t r) {
          g[r] += std::fma(-old_i, old_row[r], new_i * new_row[r]);
        });
  }
}

template <class B, int64_t P>
double Dot(const double* a, const double* b, int64_t n) {
  const int64_t m = TripCount<P>(n);
  typename B::V acc = B::Zero();
  int64_t r = 0;
  for (; r + 8 <= m; r += 8) {
    acc = B::Fmadd(B::Load(a + r), B::Load(b + r), acc);
  }
  double sum = B::Reduce(acc);
  if (r + 4 <= m) {
    sum += ReduceLanes4(Ymm::Mul(Ymm::Load(a + r), Ymm::Load(b + r)));
    r += 4;
  }
  if constexpr (P == 0) {
    for (; r < m; ++r) sum = std::fma(a[r], b[r], sum);
  }
  return sum;
}

// CoordinateDescentSweep's gradient block and multiply-add, fused: each
// block of lanes takes its rank multiply-adds in a register.
template <class B, int64_t P>
void GradientBlock(const double* row, int64_t rank, const double* hq,
                   int64_t m, double* g, int64_t lanes) {
  ForEachBlock<B, P>(
      lanes,
      [&](auto w, int64_t r) {
        auto acc = w.Zero();
        for (int64_t i = 0; i < rank; ++i) {
          acc = w.Fmadd(w.Set1(row[i]), w.Load(hq + i * m + r), acc);
        }
        w.Store(g + r, acc);
      },
      [&](int64_t r) {
        double acc = 0.0;
        for (int64_t i = 0; i < rank; ++i) {
          acc = std::fma(row[i], hq[i * m + r], acc);
        }
        g[r] = acc;
      });
}

inline double FusedMulAdd(double a, double b, double c) {
  return std::fma(a, b, c);
}

// The GCP Newton panel passes (see VecPanelDots, VecPanelAxpy): direct,
// inlinable calls of Dot<P> and Axpy<P> per cell, so each result is theirs
// bit for bit without an indirect call per cell.
template <class B, int64_t P>
void PanelDots(const double* panel, const double* v, int64_t cells,
               double* out, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t c = 0; c < cells; ++c) out[c] = Dot<B, P>(panel + c * m, v, n);
}

template <class B, int64_t P>
void PanelAxpy(const double* weights, const double* panel, int64_t cells,
               double* y, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t c = 0; c < cells; ++c) {
    Axpy<B, P>(weights[c], panel + c * m, y, n);
  }
}

// GCP Newton staging (see VecGatherHadamardDots). For P ≤ 32 a cell's
// Hadamard row is formed in registers (P/8 blocks, then a ymm when P ≡ 4
// mod 8), one multiply per factor row and block, stored to the panel and
// dotted with the register-held v in Dot<P>'s chain, reduction and
// four-lane step. P = 0 runs Copy/Mul/MulAccum and Dot<0>.
template <class B, int64_t P>
void GatherHadamardDots(const double* const* rows, int64_t count,
                        int64_t cells, const double* v, double* panel,
                        double* dots, int64_t n) {
  if constexpr (P == 0) {
    for (int64_t c = 0; c < cells; ++c) {
      const double* const* r = rows + c * count;
      double* h = panel + c * n;
      if (count == 1) {
        Copy<B, 0>(r[0], h, n);
      } else {
        Mul<B, 0>(r[0], r[1], h, n);
        for (int64_t k = 2; k < count; ++k) MulAccum<B, 0>(h, r[k], n);
      }
      dots[c] = Dot<B, 0>(h, v, n);
    }
  } else {
    constexpr int kZ = static_cast<int>(P / 8);
    constexpr bool kTail = P % 8 != 0;
    constexpr int kZs = kZ > 0 ? kZ : 1;  // No zero-length arrays.
    typename B::V vz[kZs] = {};
    for (int b = 0; b < kZ; ++b) vz[b] = B::Load(v + 8 * b);
    const __m256d vt = kTail ? Ymm::Load(v + 8 * kZ) : Ymm::Zero();
    for (int64_t c = 0; c < cells; ++c) {
      const double* const* r = rows + c * count;
      double* out = panel + c * P;
      typename B::V h[kZs] = {};
      for (int b = 0; b < kZ; ++b) h[b] = B::Load(r[0] + 8 * b);
      __m256d t = kTail ? Ymm::Load(r[0] + 8 * kZ) : Ymm::Zero();
      for (int64_t k = 1; k < count; ++k) {
        for (int b = 0; b < kZ; ++b) h[b] = B::Mul(h[b], B::Load(r[k] + 8 * b));
        if constexpr (kTail) t = Ymm::Mul(t, Ymm::Load(r[k] + 8 * kZ));
      }
      typename B::V acc = B::Zero();
      for (int b = 0; b < kZ; ++b) {
        B::Store(out + 8 * b, h[b]);
        acc = B::Fmadd(h[b], vz[b], acc);
      }
      double dot = B::Reduce(acc);
      if constexpr (kTail) {
        Ymm::Store(out + 8 * kZ, t);
        dot += ReduceLanes4(Ymm::Mul(t, vt));
      }
      dots[c] = dot;
    }
  }
}

// Weighted upper SYRK (see VecWeightedSyrkUpper) in register tiles: NR
// rows × W columns of `out` (W/8 blocks, then a ymm when W ≡ 4 mod 8) stay
// in registers across a chunk of cells. Every element takes one FMA per
// cell, u·h_j + acc with u = weights[c]·h_i rounded on its own, in cell
// order, exactly like Axpy, so the result is bitwise the per-cell
// AddOuterProduct accumulation.
constexpr int64_t kSyrkCellChunk = 128;  // Keeps a chunk's panel cached.

template <class B, int NR, int W>
void SyrkTile(const double* panel, const double* weights, int64_t cells,
              int64_t m, int64_t row0, int64_t col0, double* out) {
  constexpr int kZ = W / 8;
  constexpr bool kTail = W % 8 != 0;
  constexpr int kZs = kZ > 0 ? kZ : 1;  // No zero-length arrays.
  typename B::V acc[NR][kZs] = {};
  __m256d tail[NR] = {};
  for (int r = 0; r < NR; ++r) {
    const double* o = out + (row0 + r) * m + col0;
    for (int v = 0; v < kZ; ++v) acc[r][v] = B::Load(o + 8 * v);
    if constexpr (kTail) tail[r] = Ymm::Load(o + 8 * kZ);
  }
  for (int64_t c = 0; c < cells; ++c) {
    const double* h = panel + c * m;
    typename B::V x[kZs] = {};
    for (int v = 0; v < kZ; ++v) x[v] = B::Load(h + col0 + 8 * v);
    const __m256d xt = kTail ? Ymm::Load(h + col0 + 8 * kZ) : Ymm::Zero();
    for (int r = 0; r < NR; ++r) {
      const double u = weights[c] * h[row0 + r];
      const typename B::V u8 = B::Set1(u);
      for (int v = 0; v < kZ; ++v) acc[r][v] = B::Fmadd(u8, x[v], acc[r][v]);
      if constexpr (kTail) tail[r] = Ymm::Fmadd(Ymm::Set1(u), xt, tail[r]);
    }
  }
  for (int r = 0; r < NR; ++r) {
    double* o = out + (row0 + r) * m + col0;
    for (int v = 0; v < kZ; ++v) B::Store(o + 8 * v, acc[r][v]);
    if constexpr (kTail) Ymm::Store(o + 8 * kZ, tail[r]);
  }
}

// The tile of `width` columns, a multiple of 4 from W up to kMaxWidth.
template <class B, int NR, int kMaxWidth, int W = 4>
void SyrkTileOfWidth(int64_t width, const double* panel,
                     const double* weights, int64_t cells, int64_t m,
                     int64_t row0, int64_t col0, double* out) {
  if constexpr (W < kMaxWidth) {
    if (width != W) {
      return SyrkTileOfWidth<B, NR, kMaxWidth, W + 4>(width, panel, weights,
                                                      cells, m, row0, col0,
                                                      out);
    }
  }
  SyrkTile<B, NR, W>(panel, weights, cells, m, row0, col0, out);
}

// The SYRK of an m-lane panel (m a multiple of 4) as 4-row tiles of at
// most kMaxWidth columns, each over a whole chunk of cells; rows from
// `rows` on are never touched.
template <class B, int kMaxWidth>
void WeightedSyrkTiles(const double* panel, const double* weights,
                       int64_t cells, int64_t rows, double* out, int64_t m) {
  for (int64_t c0 = 0; c0 < cells; c0 += kSyrkCellChunk) {
    const int64_t chunk = std::min(kSyrkCellChunk, cells - c0);
    const double* p = panel + c0 * m;
    const double* w = weights + c0;
    for (int64_t i0 = 0; i0 < rows; i0 += 4) {
      for (int64_t j0 = i0; j0 < m; j0 += kMaxWidth) {
        const int64_t width = std::min<int64_t>(kMaxWidth, m - j0);
        if (i0 + 4 <= rows) {
          SyrkTileOfWidth<B, 4, kMaxWidth>(width, p, w, chunk, m, i0, j0,
                                           out);
        } else {
          for (int64_t i = i0; i < rows; ++i) {
            SyrkTileOfWidth<B, 1, kMaxWidth>(width, p, w, chunk, m, i, j0,
                                             out);
          }
        }
      }
    }
  }
}

// ExpClamped (see rank_dispatch.h) over the lanes of a block: separate
// multiplies and adds, never fused, so every lane equals the scalar form
// bitwise. The clamp keeps x in Max's and Min's second operand, the one
// they return when either input is a NaN.
template <class W>
typename W::V ExpClampedBlock(typename W::V x) {
  using namespace exp_clamped;
  x = W::Min(W::Set1(kBound), W::Max(W::Set1(-kBound), x));
  const typename W::V shifter = W::Set1(kShifter);
  const typename W::V t = W::Add(W::Mul(x, W::Set1(kLog2e)), shifter);
  const typename W::V k = W::Sub(t, shifter);
  const typename W::V r = W::Sub(W::Sub(x, W::Mul(k, W::Set1(kLn2Hi))),
                                 W::Mul(k, W::Set1(kLn2Lo)));
  typename W::V q = W::Set1(kCoeffs[kNumCoeffs - 1]);
  for (int i = kNumCoeffs - 2; i >= 0; --i) {
    q = W::Add(W::Mul(q, r), W::Set1(kCoeffs[i]));
  }
  const typename W::V p = W::Add(r, W::Mul(W::Mul(r, r), q));
  return W::Mul(W::Add(W::Set1(1.0), p), W::Pow2(t));
}

// Elementwise over `count` values: full eight-lane blocks, then one block
// for the remainder, loaded and stored through LoadFirst / StoreFirst.
template <class B>
void ExpClampedKernel(const double* x, double* out, int64_t count) {
  int64_t i = 0;
  for (; i + 8 <= count; i += 8) {
    B::Store(out + i, ExpClampedBlock<B>(B::Load(x + i)));
  }
  if (i < count) {
    B::StoreFirst(out + i, count - i,
                  ExpClampedBlock<B>(B::LoadFirst(x + i, count - i)));
  }
}

// ---------------------------------------------------------------------------
// Gram solve (see CholeskyUpperRowSuffixes and CholeskySolveUpperRowSuffixes
// in rank_dispatch.h). P = 0 runs those loops over Axpy<B, 0> and
// Dot<B, 0>. For P ≤ 32 a row of U, or x, lives in P/4 ymm registers on
// both tiers (the code below does not use B), and every element takes the
// operations of those loops in their order, so the factor and the solution
// are theirs bit for bit:
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

template <class B, int64_t P>
bool CholeskyUpper(const double* a, double* u, int64_t order, int64_t n) {
  if constexpr (P == 0) {
    return CholeskyUpperRowSuffixes<&Axpy<B, 0>>(a, u, order, n);
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
// / u_ii for i = order−1..0, each dot's eight-lane chunks (lanes 0–3 and
// 4–7 in two chains, as two four-lane windows of the register-held x),
// reduction, four-lane step and fused scalar tail exactly Dot<0>'s.
template <int64_t P>
void BackSubstitute(const double* u, __m256d (&x)[kBlocks<P>],
                    int64_t order) {
  for (int64_t i = order - 1; i >= 0; --i) {
    const double* row = u + i * P + i + 1;
    const int64_t s = i + 1, len = order - s;
    __m256d lo = _mm256_setzero_pd(), hi = _mm256_setzero_pd();
    int64_t r = 0;
    for (; r + 8 <= len; r += 8) {
      lo = _mm256_fmadd_pd(_mm256_loadu_pd(row + r), Window(x, s + r), lo);
      hi = _mm256_fmadd_pd(_mm256_loadu_pd(row + r + 4), Window(x, s + r + 4),
                           hi);
    }
    double sum = ReduceLanes8(lo, hi);
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

template <class B, int64_t P>
void CholeskySolveUpper(const double* u, const double* b, double* x,
                        int64_t order, int64_t n) {
  if constexpr (P == 0) {
    CholeskySolveUpperRowSuffixes<&Axpy<B, 0>, &Dot<B, 0>>(u, b, x, order, n);
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

// A tier's table at padded rank P: the kernels above over block B, and the
// tier's own SYRK slot.
template <class B, int64_t P>
constexpr RankKernelTable SharedKernelTable(
    KernelTier tier, decltype(RankKernelTable::weighted_syrk_upper) syrk) {
  return {tier,
          P,
          &Fill<B, P>,
          &Copy<B, P>,
          &Axpy<B, P>,
          &Mul<B, P>,
          &MulAccum<B, P>,
          &Fma3<B, P>,
          &Dot<B, P>,
          &GramRankTwoUpdate<B, P>,
          syrk,
          &CoordinateDescentSweep<P, &GradientBlock<B, P>, &Axpy<B, P>,
                                  &FusedMulAdd>,
          &PanelDots<B, P>,
          &PanelAxpy<B, P>,
          &GatherHadamardDots<B, P>,
          &ExpClampedKernel<B>,
          &CholeskyUpper<B, P>,
          &CholeskySolveUpper<B, P>};
}

}  // namespace
}  // namespace sns::codelets

#endif  // SLICENSTITCH_LINALG_CODELETS_CODELET_KERNELS_H_
