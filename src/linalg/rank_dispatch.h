// Compile-time rank dispatch for the rank-R inner loops.
//
// The per-event cost of every SliceNStitch updater is dominated by length-R
// loops (R = CP rank, padded to a multiple of 4 — see linalg/simd.h). With a
// runtime trip count the autovectorizer must emit prologue/epilogue scalar
// tails and aliasing checks; with a compile-time padded trip count and
// __restrict pointers it emits clean full-width SIMD. This header provides:
//
//   - RankTag<P> / DispatchPaddedRank: a switch that maps the padded rank
//     (4, 8, ..., 32; every multiple of kRankPadDoubles up to 32) onto a
//     template instantiation, with RankTag<0> as the runtime-bound generic
//     fallback for larger ranks,
//   - the templated __restrict vector primitives every dense kernel is
//     built from (fill/copy/axpy/Hadamard/dot, the rank-two Gram commit, the
//     weighted upper-triangle SYRK, the gathered Hadamard staging and the
//     panel dot / axpy passes of the GCP Newton step, and the clipped
//     coordinate descent of the + variants),
//   - the Gram solve: the Cholesky factorization A = U'U and its forward /
//     back substitution, as row-suffix loops over a runtime-length axpy and
//     dot that every tier reproduces bitwise,
//   - the library's own clamped exponential (ExpClamped and the
//     exp_clamped slot), which rounds identically on every tier, and
//   - RankKernelTable: a function-pointer table over those primitives, one
//     per tier and padded rank. Every library kernel (linalg/matrix.h,
//     linalg/cholesky.h, tensor/mttkrp.h, the Gram updates of
//     core/cpd_state.h) resolves its table from the padded stride it runs
//     at, GetRankKernelTable(stride), and takes no table argument.
//     Workspaces cache a table only for their direct primitive calls
//     (kr.axpy, kr.copy, ...).
//
// Contract shared by all padded primitives: pointer arguments reference
// buffers of at least the padded length, with the padding lanes holding
// exactly 0.0 (Matrix rows and AlignedVector buffers guarantee both).
// Differential coverage for every specialization and the generic fallback
// lives in tests/kernel_dispatch_test.cpp.

#ifndef SLICENSTITCH_LINALG_RANK_DISPATCH_H_
#define SLICENSTITCH_LINALG_RANK_DISPATCH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/cpu_features.h"
#include "linalg/simd.h"

namespace sns {

/// Tag carrying a compile-time padded rank; 0 means "runtime length".
template <int64_t kPadded>
struct RankTag {
  static constexpr int64_t value = kPadded;
};

/// Invokes fn(RankTag<P>{}) with P = padded_rank when a specialization
/// exists, RankTag<0> (generic runtime-bound kernels) otherwise.
template <typename Fn>
decltype(auto) DispatchPaddedRank(int64_t padded_rank, Fn&& fn) {
  switch (padded_rank) {
    case 4:
      return fn(RankTag<4>{});
    case 8:
      return fn(RankTag<8>{});
    case 12:
      return fn(RankTag<12>{});
    case 16:
      return fn(RankTag<16>{});
    case 20:
      return fn(RankTag<20>{});
    case 24:
      return fn(RankTag<24>{});
    case 28:
      return fn(RankTag<28>{});
    case 32:
      return fn(RankTag<32>{});
    default:
      return fn(RankTag<0>{});
  }
}

/// Loop bound of a primitive: the compile-time padded rank when
/// specialized, the runtime argument for the generic fallback.
template <int64_t P>
constexpr int64_t TripCount(int64_t n) {
  return P > 0 ? P : n;
}

// ---------------------------------------------------------------------------
// Vector primitives. `n` is the padded length; specialized instantiations
// (P > 0) ignore it.

/// dst[0..n) = value.
template <int64_t P>
inline void VecFill(double* SNS_RESTRICT dst, double value, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t r = 0; r < m; ++r) dst[r] = value;
}

/// dst = src. src and dst must not overlap.
template <int64_t P>
inline void VecCopy(const double* SNS_RESTRICT src, double* SNS_RESTRICT dst,
                    int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t r = 0; r < m; ++r) dst[r] = src[r];
}

/// y += alpha * x. x and y must not overlap.
template <int64_t P>
inline void VecAxpy(double alpha, const double* SNS_RESTRICT x,
                    double* SNS_RESTRICT y, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t r = 0; r < m; ++r) y[r] += alpha * x[r];
}

/// out = a ∗ b elementwise. `out` MAY alias `a` or `b` (elementwise maps
/// with matching indices are alias-safe), so no __restrict here.
template <int64_t P>
inline void VecMul(const double* a, const double* b, double* out, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t r = 0; r < m; ++r) out[r] = a[r] * b[r];
}

/// dst ∗= src elementwise. dst may alias src.
template <int64_t P>
inline void VecMulAccum(double* dst, const double* src, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t r = 0; r < m; ++r) dst[r] *= src[r];
}

/// out += v · (a ∗ b): the fused 3-mode MTTKRP row accumulation. `a` and
/// `b` are read-only and may alias each other (e.g. a squared-row
/// accumulation passes the same row twice); `out` must not alias either.
template <int64_t P>
inline void VecFma3(double v, const double* a, const double* b,
                    double* SNS_RESTRICT out, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t r = 0; r < m; ++r) out[r] += v * (a[r] * b[r]);
}

/// Σ a[r]·b[r]. a and b may point at the same data (reads only).
///
/// Accumulates into four independent partial sums (one per 256-bit lane
/// slot), combined as (s0+s2)+(s1+s3): a sequential dot is one
/// multiply-add dependency chain and bottlenecks on FMA latency — the
/// Cholesky factorize/solve loops live on this. The grouping is fixed, so
/// results are deterministic (identical everywhere this kernel is used,
/// which is every dot in the library — internal bitwise differentials
/// remain exact).
template <int64_t P>
inline double VecDot(const double* a, const double* b, int64_t n) {
  const int64_t m = TripCount<P>(n);
  const int64_t m4 = m - m % 4;
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  int64_t r = 0;
  for (; r < m4; r += 4) {
    s0 += a[r] * b[r];
    s1 += a[r + 1] * b[r + 1];
    s2 += a[r + 2] * b[r + 2];
    s3 += a[r + 3] * b[r + 3];
  }
  double sum = (s0 + s2) + (s1 + s3);
  for (; r < m; ++r) sum += a[r] * b[r];
  return sum;
}

/// Q ← Q − p'p + a'a (Eq. 13) after a factor row changed from p = old_row
/// to a = new_row: gram[i·n + j] += new_row[i]·new_row[j] −
/// old_row[i]·old_row[j] for i < rows. `gram` must not alias the rows.
template <int64_t P>
inline void VecGramRankTwoUpdate(const double* SNS_RESTRICT new_row,
                                 const double* SNS_RESTRICT old_row,
                                 double* SNS_RESTRICT gram, int64_t rows,
                                 int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t i = 0; i < rows; ++i) {
    const double new_i = new_row[i], old_i = old_row[i];
    double* SNS_RESTRICT g = gram + i * m;
    for (int64_t j = 0; j < m; ++j) {
      g[j] += new_i * new_row[j] - old_i * old_row[j];
    }
  }
}

/// Weighted upper-triangle SYRK: for every cell c in [0, cells), in order,
///   out[i·n + j] += (weights[c] · panel[c·n + i]) · panel[c·n + j]
/// for i < rows and i <= j < n, with each element updated in the same
/// multiply-add form as VecAxpy — the Σ ℓ''·h h' Newton curvature of the
/// GCP row step (losses/gcp_row_update.h), element-for-element the
/// accumulation a per-cell AddOuterProduct of (ℓ''·h, h) performs, over
/// half the matrix. `panel` is cells × n row-major, `out` rows × n
/// row-major (rows <= n), n the padded length. Entries below the diagonal
/// are left unspecified (intrinsic tiers clobber them inside their
/// diagonal register tiles). `out` must not alias the inputs.
template <int64_t P>
inline void VecWeightedSyrkUpper(const double* SNS_RESTRICT panel,
                                 const double* SNS_RESTRICT weights,
                                 int64_t cells, int64_t rows,
                                 double* SNS_RESTRICT out, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t c = 0; c < cells; ++c) {
    const double* SNS_RESTRICT h = panel + c * m;
    for (int64_t i = 0; i < rows; ++i) {
      const double u = weights[c] * h[i];
      double* SNS_RESTRICT o = out + i * m;
      for (int64_t j = i; j < m; ++j) o[j] += u * h[j];
    }
  }
}

/// Clipped coordinate descent over one row (Alg. 5 lines 3-6; see
/// CoordinateDescentRow in core/row_updater.h) that carries the gradient
/// g = H·row instead of taking a dot per coordinate. Coordinates go in
/// blocks [k0, k1) of 32 (one block for every P > 0, all ≤ 32). Per
/// block, kGradient(row, rank, hq + k0, m, g, k1 − k0) forms g_j =
/// Σ_i row[i]·hq[i·n + j] for j in [k0, k1) as one axpy per row i in order
/// (hq is symmetric, so this is H·row); then for k = k0..k1−1 with
/// c_k = hq[k·n + k] > 1e-300 (dead components are left as they are):
///   row[k] ← ((numerator[k] − (g_k − row[k]·c_k)) / c_k) clipped to
///     [clip_min, clip_max], each operation rounded on its own;
///   g += (new − old)·hq row k over the block, through kAxpy.
/// Every g lane takes the tier's axpy arithmetic, so nothing reduces
/// across lanes. Only the division and one kMulAdd (a·b + c, rounded as
/// kAxpy rounds a lane) separate one coordinate from the next: g_{k+1} is
/// read before step k and advanced as a scalar while the vector update of
/// g runs beside it, and a clipped step is the bound minus the old value,
/// so it does not wait for the clip. `hq` is rank × n row-major and `row`
/// holds n doubles, both with zero padding lanes.
template <int64_t P, auto kGradient, auto kAxpy, auto kMulAdd>
inline void CoordinateDescentSweep(double* row, int64_t rank,
                                   const double* hq, const double* numerator,
                                   double clip_min, double clip_max,
                                   int64_t n) {
  const int64_t m = TripCount<P>(n);
  constexpr int64_t kBlock = 32;
  alignas(64) double g[kBlock] = {};
  for (int64_t k0 = 0; k0 < rank; k0 += kBlock) {
    const int64_t k1 = std::min(rank, k0 + kBlock);
    kGradient(row, rank, hq + k0, m, g, k1 - k0);
    double g_k = g[0];
    for (int64_t k = k0; k < k1; ++k) {
      const double* hq_k = hq + k * m;
      const double c_k = hq_k[k];
      const double next = k + 1 < k1 ? g[k + 1 - k0] : 0.0;
      if (!(c_k > 1e-300)) {
        g_k = next;
        continue;
      }
      const double old = row[k];
      double value = (numerator[k] - (g_k - old * c_k)) / c_k;
      double step = value - old;
      if (value > clip_max) {
        value = clip_max;
        step = clip_max - old;
      } else if (value < clip_min) {
        value = clip_min;
        step = clip_min - old;
      }
      row[k] = value;
      if (k + 1 == k1) break;
      g_k = kMulAdd(step, hq_k[k + 1], next);
      kAxpy(step, hq_k + k0, g, k1 - k0);
    }
  }
}

/// The generic tier's gradient block and multiply-add, in VecAxpy's
/// arithmetic.
template <int64_t P>
inline void VecGradientBlock(const double* row, int64_t rank,
                             const double* hq, int64_t m, double* g,
                             int64_t lanes) {
  VecFill<P>(g, 0.0, lanes);
  for (int64_t i = 0; i < rank; ++i) VecAxpy<P>(row[i], hq + i * m, g, lanes);
}

inline double UnfusedMulAdd(double a, double b, double c) { return c + a * b; }

/// Per-cell dots against one vector: out[c] = VecDot<P>(panel + c·n, v, n)
/// for c in [0, cells). `panel` is cells × n row-major.
template <int64_t P>
inline void VecPanelDots(const double* panel, const double* v, int64_t cells,
                         double* out, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t c = 0; c < cells; ++c) out[c] = VecDot<P>(panel + c * m, v, n);
}

/// The per-cell axpy sequence y += weights[c] · panel row c, for c in
/// [0, cells) in order, each step VecAxpy<P>. y must not alias the inputs.
template <int64_t P>
inline void VecPanelAxpy(const double* weights, const double* panel,
                         int64_t cells, double* y, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t c = 0; c < cells; ++c) {
    VecAxpy<P>(weights[c], panel + c * m, y, n);
  }
}

/// Gathered Hadamard rows and their dots, for c in [0, cells): panel row c
/// = rows[c·count] ∗ rows[c·count + 1] ∗ … ∗ rows[c·count + count − 1],
/// multiplied left to right (a copy for count = 1), and dots[c] =
/// VecDot<P>(panel row c, v, n). So it is HadamardOfRows
/// (tensor/hadamard_row.h) per cell followed by VecPanelDots. count ≥ 1;
/// `rows` holds cells·count row pointers; `panel` is cells × n row-major
/// and must not alias the rows or v.
template <int64_t P>
inline void VecGatherHadamardDots(const double* const* rows, int64_t count,
                                  int64_t cells, const double* v,
                                  double* panel, double* dots, int64_t n) {
  const int64_t m = TripCount<P>(n);
  for (int64_t c = 0; c < cells; ++c) {
    const double* const* r = rows + c * count;
    double* h = panel + c * m;
    if (count == 1) {
      VecCopy<P>(r[0], h, n);
    } else {
      VecMul<P>(r[0], r[1], h, n);
      for (int64_t k = 2; k < count; ++k) VecMulAccum<P>(h, r[k], n);
    }
    dots[c] = VecDot<P>(h, v, n);
  }
}

// ---------------------------------------------------------------------------
// Gram solve: Cholesky A = U'U of a symmetric positive-definite order ×
// order matrix and its forward/back substitution, in the row-suffix form
// every tier's table reproduces bitwise. `a` and `u` are row-major with
// rows `stride` doubles apart (stride >= order, padding lanes 0.0); U is
// upper-triangular, so every inner loop is a contiguous row suffix.

/// Right-looking factorization through a runtime-length axpy `kAxpy`
/// (signature of VecAxpy): stage a's upper triangle into u; then for k =
/// 0..order−1 take the pivot u_kk, set it to √pivot, scale U(k, k+1..order)
/// by 1/√pivot, and give every later row i with u_ki ≠ 0 the suffix update
/// U(i, i..order) += (−u_ki)·U(k, i..order). So U(i, j) takes its updates
/// k = 0..i−1 in k order, each one kAxpy multiply-add. Writes u's upper
/// triangle only. Returns false at the first pivot that is not positive
/// and finite; u is then partially written and must not be solved against.
template <auto kAxpy>
inline bool CholeskyUpperRowSuffixes(const double* a, double* u,
                                     int64_t order, int64_t stride) {
  for (int64_t i = 0; i < order; ++i) {
    for (int64_t j = i; j < order; ++j) u[i * stride + j] = a[i * stride + j];
  }
  for (int64_t k = 0; k < order; ++k) {
    double* row_k = u + k * stride;
    const double pivot = row_k[k];
    if (pivot <= 0.0 || !std::isfinite(pivot)) return false;
    const double diag = std::sqrt(pivot);
    row_k[k] = diag;
    const double inv = 1.0 / diag;
    for (int64_t j = k + 1; j < order; ++j) row_k[j] *= inv;
    for (int64_t i = k + 1; i < order; ++i) {
      const double u_ki = row_k[i];
      if (u_ki == 0.0) continue;
      kAxpy(-u_ki, row_k + i, u + i * stride + i, order - i);
    }
  }
  return true;
}

/// Solve A x = b against CholeskyUpperRowSuffixes' factor: b and x hold
/// `order` values and may be the same buffer. Forward elimination U' y = b:
/// y_k = x_k / u_kk, then x(k+1..order) += (−y_k)·U(k, k+1..order) through
/// kAxpy; back substitution U x = y: x_i = (x_i − kDot(U(i, i+1..order),
/// x(i+1..order))) / u_ii.
template <auto kAxpy, auto kDot>
inline void CholeskySolveUpperRowSuffixes(const double* u, const double* b,
                                          double* x, int64_t order,
                                          int64_t stride) {
  if (x != b) {
    for (int64_t r = 0; r < order; ++r) x[r] = b[r];
  }
  for (int64_t k = 0; k < order; ++k) {
    const double* row = u + k * stride;
    const double y_k = x[k] / row[k];
    x[k] = y_k;
    kAxpy(-y_k, row + k + 1, x + k + 1, order - k - 1);
  }
  for (int64_t i = order - 1; i >= 0; --i) {
    const double* row = u + i * stride;
    x[i] = (x[i] - kDot(row + i + 1, x + i + 1, order - i - 1)) / row[i];
  }
}

/// The generic tier's Gram solve slots: the row-suffix loops over
/// VecAxpy<0> / VecDot<0>, at the padded stride. `order` is the system's
/// order; n the padded stride (ignored for P > 0).
template <int64_t P>
inline bool VecCholeskyUpper(const double* a, double* u, int64_t order,
                             int64_t n) {
  return CholeskyUpperRowSuffixes<&VecAxpy<0>>(a, u, order, TripCount<P>(n));
}

template <int64_t P>
inline void VecCholeskySolveUpper(const double* u, const double* b, double* x,
                                  int64_t order, int64_t n) {
  CholeskySolveUpperRowSuffixes<&VecAxpy<0>, &VecDot<0>>(u, b, x, order,
                                                         TripCount<P>(n));
}

// ---------------------------------------------------------------------------
// Clamped exponential e^clamp(x, −40, 40) of the non-Gaussian losses
// (losses/loss_function.h). The library owns it instead of calling libm so
// that the generic tier, both intrinsic tiers and the scalar loss forms
// round identically on every host: every step below is one IEEE multiply,
// add or subtract (no fused multiply-add), an exact integer exponent
// build, or the clamp, so the lanes of a vector body and the scalar form
// compute the same bits.
//
//   x ← clamp(x, −40, 40)             NaN stays NaN, ±inf → ±40
//   t = x·log2(e) + 1.5·2⁵²            t's low bits hold k = round(x/ln 2)
//   k = t − 1.5·2⁵²                    exact
//   r = (x − k·ln2_hi) − k·ln2_lo      first subtraction exact (Sterbenz)
//   e^r ≈ 1 + (r + r²·q(r))            q = Σ_{i≥2} r^(i−2)/i!, i ≤ 13
//   result = e^r · 2^k                 2^k built from t's bits, exact
//
// |r| ≤ ln 2/2 (plus a rounding sliver), where the Taylor tail r¹⁴/14! is
// below 5e-18, so the result stays within 1.5 ulp of the true exponential
// (tests/kernel_dispatch_test.cpp measures it against long double).
// ln2_hi carries 32 significant bits, so k·ln2_hi is exact for |k| ≤ 58
// (= 40/ln 2 rounded up), and e^±40 is far from overflow and from
// subnormals.
namespace exp_clamped {
inline constexpr double kBound = 40.0;
inline constexpr double kLog2e = 0x1.71547652b82fep0;
inline constexpr double kShifter = 0x1.8p52;
inline constexpr double kLn2Hi = 0x1.62e42feep-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr int64_t kExponentBias = 1023;
/// q(r) coefficients, 1/2! first: Horner runs from the back.
inline constexpr double kCoeffs[] = {
    1.0 / 2.0,          1.0 / 6.0,           1.0 / 24.0,
    1.0 / 120.0,        1.0 / 720.0,         1.0 / 5040.0,
    1.0 / 40320.0,      1.0 / 362880.0,      1.0 / 3628800.0,
    1.0 / 39916800.0,   1.0 / 479001600.0,   1.0 / 6227020800.0};
inline constexpr int kNumCoeffs =
    static_cast<int>(sizeof(kCoeffs) / sizeof(kCoeffs[0]));
}  // namespace exp_clamped

/// e^clamp(x, −40, 40): bitwise what every tier's exp_clamped slot writes
/// for x. Defined out of line in rank_dispatch.cpp, so callers in TUs built
/// without -ffp-contract=off still get the unfused roundings.
double ExpClamped(double x);

// ---------------------------------------------------------------------------
// Function-pointer table over the primitives.

/// The row-level primitive set. Library kernels resolve it per call from
/// the padded stride; UpdateWorkspace and GcpRowWorkspace cache it once per
/// Prepare for the primitives their updaters call directly. Every function
/// takes the padded length as its trailing argument; specialized tables
/// (padded_rank > 0) ignore it.
///
/// Three tiers of the same contract exist (common/cpu_features.h): the generic
/// tier points at the templated primitives above; the AVX2 and AVX-512 tiers
/// point at the intrinsic codelets of linalg/codelets/, compiled in dedicated
/// TUs with the matching -m flags and only reachable through this table (so a
/// baseline build never executes them on hosts without the extensions). The two
/// intrinsic tiers return the same bits from every slot: every slot but the
/// SYRK is one source (codelets/codelet_kernels.h) compiled in both TUs, whose
/// dots keep eight partial sums (two four-lane accumulators on AVX2) in one
/// reduction order, so a slot can move from one table to the other without
/// changing a trajectory. They fuse multiply-adds and group their dots
/// differently from the generic tier, so they match it to a few ulps, not
/// bitwise; elementwise kernels (fill/copy/mul/mul_accum) and exp_clamped are
/// bitwise across all three tiers. Within one tier, weighted_syrk_upper is
/// bitwise equal to the per-cell axpy accumulation it replaces (see
/// VecWeightedSyrkUpper), coordinate_descent reduces nothing across lanes, so
/// its P ≤ 32 and P = 0 tables agree bitwise (see CoordinateDescentSweep),
/// gram_rank_two_update forms the deltas of (i, j) and (j, i) alike, so a
/// symmetric Gram stays bitwise symmetric, fma3(v, a, b) equals axpy(v, a∗b)
/// with a∗b formed by `mul`, panel_dots / panel_axpy equal the same tier's
/// per-row dot / axpy sequence, and gather_hadamard_dots equals HadamardOfRows
/// over the same rows (copy, mul and mul_accum, bitwise on every tier) followed
/// by the same tier's `dot` of each panel row with v. exp_clamped is bitwise
/// identical on every tier (see ExpClamped); it takes an element count, not a
/// padded length.
/// cholesky_upper and cholesky_solve_upper take the system's order and the
/// padded row stride; on every tier they compute exactly what
/// CholeskyUpperRowSuffixes and CholeskySolveUpperRowSuffixes compute over
/// the same tier's runtime-length (P = 0) axpy and dot: the factor's upper
/// triangle and padding lanes (kept 0.0), the solution, and on failure the
/// same false at the same pivot with the rows before it written. Entries
/// below the diagonal are unspecified (the intrinsic tiers write zeros into
/// the diagonal's register block). The generic tier and the P = 0 tables
/// run those loops; the intrinsic tiers at padded ranks up to 32 hold the
/// working rows in registers, in one form for both (see
/// codelets/codelet_kernels.h).
struct RankKernelTable {
  KernelTier tier;      // Which implementation tier this table points at.
  int64_t padded_rank;  // 0 for the runtime-bound table of this tier.
  void (*fill)(double* dst, double value, int64_t n);
  void (*copy)(const double* src, double* dst, int64_t n);
  void (*axpy)(double alpha, const double* x, double* y, int64_t n);
  void (*mul)(const double* a, const double* b, double* out, int64_t n);
  void (*mul_accum)(double* dst, const double* src, int64_t n);
  void (*fma3)(double v, const double* a, const double* b, double* out,
               int64_t n);
  double (*dot)(const double* a, const double* b, int64_t n);
  // Whole-Gram commit of one changed factor row (see VecGramRankTwoUpdate).
  void (*gram_rank_two_update)(const double* new_row, const double* old_row,
                               double* gram, int64_t rows, int64_t n);
  // GCP Newton curvature (rows × n upper triangle; see VecWeightedSyrkUpper).
  void (*weighted_syrk_upper)(const double* panel, const double* weights,
                              int64_t cells, int64_t rows, double* out,
                              int64_t n);
  // The + variants' clipped sweep (see CoordinateDescentSweep).
  void (*coordinate_descent)(double* row, int64_t rank, const double* hq,
                             const double* numerator, double clip_min,
                             double clip_max, int64_t n);
  // GCP Newton panel passes: θ / dθ per cell, and the gradient (see
  // VecPanelDots, VecPanelAxpy).
  void (*panel_dots)(const double* panel, const double* v, int64_t cells,
                     double* out, int64_t n);
  void (*panel_axpy)(const double* weights, const double* panel,
                     int64_t cells, double* y, int64_t n);
  // GCP Newton staging: each cell's Hadamard row gathered from its factor
  // rows into the panel, with θ per cell (see VecGatherHadamardDots).
  void (*gather_hadamard_dots)(const double* const* rows, int64_t count,
                               int64_t cells, const double* v, double* panel,
                               double* dots, int64_t n);
  // out[i] = ExpClamped(x[i]) for i in [0, count); out may alias x.
  void (*exp_clamped)(const double* x, double* out, int64_t count);
  // Gram solve of an order × order system whose rows are n doubles apart
  // (see CholeskyUpperRowSuffixes, CholeskySolveUpperRowSuffixes); a and u
  // must not alias.
  bool (*cholesky_upper)(const double* a, double* u, int64_t order,
                         int64_t n);
  void (*cholesky_solve_upper)(const double* u, const double* b, double* x,
                               int64_t order, int64_t n);
};

/// The auto-tier table for a given padded rank: a specialization for every
/// padded rank with a RankTag case above, the runtime-bound table
/// otherwise, from the tier ResolveKernelTier() picked for this process.
/// The returned reference has static storage duration.
const RankKernelTable& GetRankKernelTable(int64_t padded_rank);

/// Same, pinned to an explicit tier. Falls back tier-by-tier (AVX-512 →
/// AVX2 → generic) when the requested tier is not compiled into the build,
/// so the returned table is always callable on a host that supports the
/// requested tier.
const RankKernelTable& GetRankKernelTable(int64_t padded_rank,
                                          KernelTier tier);

}  // namespace sns

#endif  // SLICENSTITCH_LINALG_RANK_DISPATCH_H_
