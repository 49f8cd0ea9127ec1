// AVX-512F codelets for the rank-R kernel layer.
//
// Same contract and isolation rules as codelets_avx2.cpp (see its header
// comment); this TU is compiled with -mavx512f -mavx2 -mfma and reached
// only through the tier-resolved RankKernelTable after the cpuid probe
// confirmed avx512f. The kernels shared with the AVX2 TU
// (codelet_kernels.h) run here on one zmm per eight-lane block (the
// register-held Gram solve on the same ymm blocks as there), so every slot
// but the SYRK is that header's code, and all 16 slots return the AVX2
// table's bits. This TU keeps only its block type and the register-band
// SYRK of P ≤ 32.
//
// No 512-bit value is split with _mm512_extractf64x4_pd,
// _mm512_castpd512_pd256, _mm512_zextpd256_pd512 or _mm512_reduce_add_pd:
// GCC implements those through an _mm256_undefined_pd() merge source that
// -Wall reports as uninitialized in every instantiation. The helpers below
// use the zero-masked forms with a full mask instead, which compile to the
// same unmasked instructions; so do the exponential's clamp and shift.

#include "linalg/codelets/codelet_tables.h"

#ifdef SNS_HAVE_X86_CODELETS

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
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

template <int64_t P>
constexpr RankKernelTable kTable =
    SharedKernelTable<Zmm, P>(KernelTier::kAvx512, &WeightedSyrkUpper<P>);

}  // namespace

const RankKernelTable& Avx512Table(int64_t padded_rank) {
  return DispatchPaddedRank(padded_rank,
                            [](auto tag) -> const RankKernelTable& {
                              return kTable<decltype(tag)::value>;
                            });
}

}  // namespace sns::codelets

#endif  // SNS_HAVE_X86_CODELETS
