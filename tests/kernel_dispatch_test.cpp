// Differential tests for the SIMD kernel layer (linalg/simd.h,
// linalg/rank_dispatch.h): every rank-dispatched kernel is pinned to a
// naive scalar reference computed with bounds-checked (i, j) indexing, at
// awkward ranks covering each dispatch specialization (padded ranks
// 4, 8, 12, 16, 20, 24, 32), the generic fallback (padded rank > 32), and
// padded tails of every phase (rank ≡ 0..3 mod 4). Also regression-guards
// the layout invariants: 64-byte-aligned storage, padded leading stride,
// and padding lanes that stay exactly 0.0 through real updater runs. The
// GCP panel kernels (gathered staging, dots, axpys, and the weighted SYRK
// across its cell chunks) are pinned to the per-row kernels bitwise, the
// Gram solve slots to the row-suffix loops over each tier's runtime-length
// kernels bitwise, and the library's clamped exponential to its scalar form
// and to long-double exp.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/random.h"
#include "core/cpd_state.h"
#include "core/row_updater.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/rank_dispatch.h"
#include "linalg/simd.h"
#include "tensor/hadamard_row.h"
#include "tensor/mttkrp.h"

namespace sns {
namespace {

// Ranks exercising every specialization (padded 4, 8, 12, 16, 20, 24, 32),
// the generic fallback (40), and every padded-tail residue.
const int64_t kRanks[] = {1, 3, 5, 7, 12, 16, 20, 24, 29, 32, 40};

// Every tier the host can actually run: the generic fallback always, plus
// each compiled-in intrinsic tier the CPU supports. Kernels pinned to these
// tables exercise the real codelets, not the fallback.
std::vector<KernelTier> AvailableTiers() {
  std::vector<KernelTier> tiers = {KernelTier::kGeneric};
  for (const KernelTier t : {KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (KernelTierCompiledIn(t) && KernelTierSupported(t)) tiers.push_back(t);
  }
  return tiers;
}

// Pins the process tier for one scope, so the library kernels (which
// resolve their table per call) run at `tier`; restores auto dispatch on
// exit.
class ScopedProcessTier {
 public:
  explicit ScopedProcessTier(KernelTier tier) {
    internal::RefreshKernelTierForTest(tier);
  }
  ~ScopedProcessTier() { internal::RefreshKernelTierForTest(); }
  ScopedProcessTier(const ScopedProcessTier&) = delete;
  ScopedProcessTier& operator=(const ScopedProcessTier&) = delete;
};

// FMA-bearing codelets drop one rounding per multiply-add: intrinsic tiers
// agree with the scalar reference to ulps, not bitwise.
void ExpectTierValue(KernelTier tier, double actual, double expected) {
  if (tier == KernelTier::kGeneric) {
    ASSERT_EQ(actual, expected);
  } else {
    ASSERT_NEAR(actual, expected, 1e-13 * (1.0 + std::fabs(expected)));
  }
}

class KernelDispatchTest : public ::testing::TestWithParam<int64_t> {};

INSTANTIATE_TEST_SUITE_P(Ranks, KernelDispatchTest,
                         ::testing::ValuesIn(kRanks));

// ---------------------------------------------------------------------------
// Layout invariants.

TEST(SimdLayoutTest, PaddedRankRoundsUpToMultipleOfFour) {
  EXPECT_EQ(PaddedRank(0), 0);
  EXPECT_EQ(PaddedRank(1), 4);
  EXPECT_EQ(PaddedRank(4), 4);
  EXPECT_EQ(PaddedRank(5), 8);
  EXPECT_EQ(PaddedRank(20), 20);
  EXPECT_EQ(PaddedRank(33), 36);
}

TEST_P(KernelDispatchTest, MatrixLayoutAlignedAndPadded) {
  const int64_t rank = GetParam();
  Rng rng(1);
  Matrix m = Matrix::RandomUniform(7, rank, rng);
  EXPECT_EQ(m.stride(), PaddedRank(rank));
  EXPECT_GE(m.stride(), m.cols());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(0)) % kSimdByteAlignment, 0u);
  // Every row is at least one vector lane (32 bytes) aligned.
  for (int64_t i = 0; i < m.rows(); ++i) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(i)) %
                  (kRankPadDoubles * sizeof(double)),
              0u);
  }
  EXPECT_TRUE(m.PaddingIsZero());
}

TEST(SimdLayoutTest, AlignedVectorZeroPadsAndAligns) {
  AlignedVector v(5, 3.0);
  EXPECT_EQ(v.size(), 5);
  EXPECT_EQ(v.padded_size(), 8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % kSimdByteAlignment, 0u);
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(v[i], 3.0);
  EXPECT_TRUE(v.PaddingIsZero());
  // Resize within capacity is value-preserving; across capacity reallocates
  // zero-initialized.
  v.Resize(6);
  EXPECT_EQ(v.padded_size(), 8);
  EXPECT_EQ(v[0], 3.0);
  // A shrink within the same padded bucket must re-zero the lanes leaving
  // the logical range — they become padding.
  v[5] = 7.0;
  v.Resize(5);
  EXPECT_EQ(v.padded_size(), 8);
  EXPECT_TRUE(v.PaddingIsZero());
  v.Resize(9);
  EXPECT_EQ(v.padded_size(), 12);
  EXPECT_TRUE(v.PaddingIsZero());
}

TEST(SimdLayoutTest, MatrixFillLeavesPaddingZero) {
  Matrix m(3, 5);
  m.Fill(7.5);
  EXPECT_TRUE(m.PaddingIsZero());
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 5; ++j) EXPECT_EQ(m(i, j), 7.5);
  }
}

TEST(SimdLayoutTest, ForEachEntryNeverExposesPadding) {
  Rng rng(2);
  Matrix m = Matrix::RandomNormal(4, 5, rng);
  int64_t visits = 0;
  m.ForEachEntry([&](int64_t i, int64_t j, double value) {
    EXPECT_EQ(value, m(i, j));
    ++visits;
  });
  EXPECT_EQ(visits, 4 * 5);
}

// ---------------------------------------------------------------------------
// Elementwise matrix kernels vs (i, j)-indexed references. Bitwise: the
// kernels perform the same per-entry arithmetic.

TEST_P(KernelDispatchTest, HadamardKernelsMatchNaive) {
  const int64_t rank = GetParam();
  Rng rng(10 + rank);
  Matrix a = Matrix::RandomNormal(rank, rank, rng);
  Matrix b = Matrix::RandomNormal(rank, rank, rng);

  Matrix out(rank, rank);
  HadamardInto(a, b, out);
  Matrix acc = a;
  HadamardAccumulate(acc, b);
  for (int64_t i = 0; i < rank; ++i) {
    for (int64_t j = 0; j < rank; ++j) {
      ASSERT_EQ(out(i, j), a(i, j) * b(i, j));
      ASSERT_EQ(acc(i, j), a(i, j) * b(i, j));
    }
  }
  EXPECT_TRUE(out.PaddingIsZero());
  EXPECT_TRUE(acc.PaddingIsZero());
}

TEST_P(KernelDispatchTest, AddOuterProductMatchesNaive) {
  const int64_t rank = GetParam();
  Rng rng(20 + rank);
  const Matrix base = Matrix::RandomNormal(rank, rank, rng);
  AlignedVector u(rank), v(rank);
  for (int64_t r = 0; r < rank; ++r) {
    u[r] = rng.Normal();
    v[r] = rng.Normal();
  }
  for (const KernelTier tier : AvailableTiers()) {
    SCOPED_TRACE(KernelTierName(tier));
    const ScopedProcessTier pin(tier);
    Matrix dst = base;
    AddOuterProduct(dst, u.data(), v.data());
    for (int64_t i = 0; i < rank; ++i) {
      for (int64_t j = 0; j < rank; ++j) {
        ExpectTierValue(tier, dst(i, j), base(i, j) + u[i] * v[j]);
      }
    }
    EXPECT_TRUE(dst.PaddingIsZero());
  }
}

TEST_P(KernelDispatchTest, MultiplyTransposeAIntoMatchesNaive) {
  const int64_t rank = GetParam();
  Rng rng(30 + rank);
  Matrix a = Matrix::RandomNormal(9, rank, rng);
  Matrix b = Matrix::RandomNormal(9, rank, rng);
  Matrix out(rank, rank);
  out.Fill(99.0);  // Must be fully overwritten.
  MultiplyTransposeAInto(a, b, out);
  for (int64_t i = 0; i < rank; ++i) {
    for (int64_t j = 0; j < rank; ++j) {
      double sum = 0.0;
      for (int64_t k = 0; k < 9; ++k) sum += a(k, i) * b(k, j);
      ASSERT_NEAR(out(i, j), sum, 1e-12 * (1.0 + std::fabs(sum)));
    }
  }
  EXPECT_TRUE(out.PaddingIsZero());
}

// ---------------------------------------------------------------------------
// Gram rank-1 updates.

// SymmetricGramInto (upper triangle, mirrored) against the full
// MultiplyTransposeAInto(f, f), bitwise on every tier, with exact zeros of
// both signs in the factor (the entries one triangle skips).
TEST_P(KernelDispatchTest, SymmetricGramEqualsFullProductBitwise) {
  const int64_t rank = GetParam();
  Rng rng(210 + rank);
  Matrix f = Matrix::RandomNormal(3 * rank + 5, rank, rng);
  for (int64_t i = 0; i < f.rows(); ++i) {
    for (int64_t j = 0; j < rank; ++j) {
      const double draw = rng.UniformDouble();
      if (draw < 0.2) f(i, j) = 0.0;
      if (draw > 0.9) f(i, j) = -0.0;
    }
  }
  for (const KernelTier tier : AvailableTiers()) {
    SCOPED_TRACE(KernelTierName(tier));
    const ScopedProcessTier pin(tier);
    Matrix gram(rank, rank), expected(rank, rank);
    gram.Fill(3.0);  // Must be fully overwritten.
    SymmetricGramInto(f, gram);
    MultiplyTransposeAInto(f, f, expected);
    for (int64_t i = 0; i < rank; ++i) {
      for (int64_t j = 0; j < rank; ++j) {
        ASSERT_EQ(std::bit_cast<uint64_t>(gram(i, j)),
                  std::bit_cast<uint64_t>(expected(i, j)))
            << "(" << i << ", " << j << ")";
      }
    }
    EXPECT_TRUE(gram.PaddingIsZero());
  }
}

TEST_P(KernelDispatchTest, GramRowUpdatesMatchNaive) {
  const int64_t rank = GetParam();
  Rng rng(40 + rank);
  const Matrix base = Matrix::RandomNormal(rank, rank, rng);
  AlignedVector old_row(rank), new_row(rank);
  for (int64_t r = 0; r < rank; ++r) {
    old_row[r] = rng.Normal();
    new_row[r] = rng.Normal();
  }

  for (const KernelTier tier : AvailableTiers()) {
    SCOPED_TRACE(KernelTierName(tier));
    Matrix gram = base;
    const ScopedProcessTier pin(tier);
    ApplyGramRowUpdate(gram, old_row.data(), new_row.data());
    for (int64_t i = 0; i < rank; ++i) {
      for (int64_t j = 0; j < rank; ++j) {
        // Group like the kernel: g += (a·b − p·p), not (g + a·b) − p·p.
        const double gram_delta =
            new_row[i] * new_row[j] - old_row[i] * old_row[j];
        ExpectTierValue(tier, gram(i, j), base(i, j) + gram_delta);
      }
    }
    EXPECT_TRUE(gram.PaddingIsZero());
  }
}

// ---------------------------------------------------------------------------
// Every RankKernelTable entry point, per available tier, against a scalar
// reference. Elementwise kernels (fill/copy/mul/mul_accum) are bitwise on
// every tier — same per-entry arithmetic; FMA-bearing kernels
// (axpy/fma3/dot/weighted_syrk_upper) are bitwise on the generic tier and
// ulp-tight on the intrinsic ones. The Gram commit is pinned by
// GramRowUpdatesMatchNaive, the coordinate descent below.

TEST_P(KernelDispatchTest, TableKernelsMatchNaivePerTier) {
  const int64_t rank = GetParam();
  const int64_t padded = PaddedRank(rank);
  Rng rng(110 + rank);
  AlignedVector a(rank), b(rank);
  for (int64_t r = 0; r < rank; ++r) {
    a[r] = rng.Normal();
    b[r] = rng.Normal();
  }
  // weighted_syrk_upper inputs: 150 cells cross the codelets' cell chunks.
  const int64_t cells = 150;
  const Matrix panel = Matrix::RandomNormal(cells, rank, rng);
  std::vector<double> weights(cells);
  for (double& w : weights) w = 0.1 + rng.UniformDouble();
  const Matrix base = Matrix::RandomNormal(rank, rank, rng);

  AlignedVector out(rank), scratch(rank);
  for (const KernelTier tier : AvailableTiers()) {
    SCOPED_TRACE(KernelTierName(tier));
    const RankKernelTable& kr = GetRankKernelTable(padded, tier);
    // Specialized table for padded ranks <= 32, runtime-bound (sentinel 0)
    // beyond.
    ASSERT_EQ(kr.padded_rank, padded <= 32 ? padded : 0);

    kr.fill(out.data(), 1.75, padded);
    for (int64_t r = 0; r < padded; ++r) ASSERT_EQ(out.data()[r], 1.75);

    kr.copy(a.data(), out.data(), padded);
    for (int64_t r = 0; r < rank; ++r) ASSERT_EQ(out[r], a[r]);

    kr.copy(b.data(), out.data(), padded);
    kr.axpy(1.3, a.data(), out.data(), padded);
    for (int64_t r = 0; r < rank; ++r) {
      ExpectTierValue(tier, out[r], b[r] + 1.3 * a[r]);
    }

    kr.mul(a.data(), b.data(), out.data(), padded);
    for (int64_t r = 0; r < rank; ++r) ASSERT_EQ(out[r], a[r] * b[r]);

    kr.copy(a.data(), out.data(), padded);
    kr.mul_accum(out.data(), b.data(), padded);
    for (int64_t r = 0; r < rank; ++r) ASSERT_EQ(out[r], a[r] * b[r]);

    kr.copy(b.data(), out.data(), padded);
    kr.fma3(0.77, a.data(), a.data(), out.data(), padded);
    for (int64_t r = 0; r < rank; ++r) {
      ExpectTierValue(tier, out[r], b[r] + 0.77 * (a[r] * a[r]));
    }

    // Dot reference replicating the fixed four-lane reduction grouping
    // every tier's contract is based on.
    {
      const int64_t m4 = padded - padded % 4;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (int64_t r = 0; r < m4; r += 4) {
        s0 += a.data()[r] * b.data()[r];
        s1 += a.data()[r + 1] * b.data()[r + 1];
        s2 += a.data()[r + 2] * b.data()[r + 2];
        s3 += a.data()[r + 3] * b.data()[r + 3];
      }
      const double expected = (s0 + s2) + (s1 + s3);
      ExpectTierValue(tier, kr.dot(a.data(), b.data(), padded), expected);
    }

    // weighted_syrk_upper: the upper triangle against a naive scalar
    // accumulation (tier tolerance, scaled to the summed term magnitudes),
    // and bitwise against the per-cell AddOuterProduct accumulation through
    // this tier's own axpy — the form the GCP Newton step used to take.
    Matrix syrk = base;
    kr.weighted_syrk_upper(panel.Row(0), weights.data(), cells, rank,
                           syrk.Row(0), padded);
    EXPECT_TRUE(syrk.PaddingIsZero());
    Matrix naive = base, magnitude(rank, rank), per_cell = base;
    const ScopedProcessTier pin(tier);
    for (int64_t c = 0; c < cells; ++c) {
      const double* h = panel.Row(c);
      for (int64_t i = 0; i < rank; ++i) {
        const double u = weights[static_cast<size_t>(c)] * h[i];
        scratch[i] = u;
        for (int64_t j = i; j < rank; ++j) {
          naive(i, j) = naive(i, j) + u * h[j];
          magnitude(i, j) += std::fabs(u * h[j]);
        }
      }
      AddOuterProduct(per_cell, scratch.data(), h);
    }
    for (int64_t i = 0; i < rank; ++i) {
      for (int64_t j = i; j < rank; ++j) {
        ASSERT_EQ(syrk(i, j), per_cell(i, j)) << "(" << i << ", " << j << ")";
        if (tier == KernelTier::kGeneric) {
          ASSERT_EQ(syrk(i, j), naive(i, j));
        } else {
          ASSERT_NEAR(syrk(i, j), naive(i, j),
                      1e-13 * (1.0 + magnitude(i, j) + std::fabs(base(i, j))));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// coordinate_descent: the gradient-carrying sweep, bitwise against a scalar
// loop of the same arithmetic, and by what it must do as a solver: stay in
// the box, never raise the row objective, converge to an interior
// minimizer, and agree with the dot-per-coordinate sweep it replaced.

// hq = K'K + shift·I over 2·rank + 1 random rows of K.
Matrix SymmetricGram(int64_t rank, double shift, Rng& rng) {
  const Matrix k = Matrix::RandomNormal(2 * rank + 1, rank, rng);
  Matrix hq = MultiplyTransposeA(k, k);
  for (int64_t i = 0; i < rank; ++i) hq(i, i) += shift;
  return hq;
}

// The sweep's definition (see CoordinateDescentSweep) as a scalar loop over
// rows `stride` apart: each g lane takes std::fma on the intrinsic tiers
// and an unfused multiply-add on the generic one.
void GradientSweepReference(KernelTier tier, double* row, int64_t rank,
                            const double* hq, int64_t stride,
                            const double* numerator, double lo, double hi) {
  const auto axpy = [tier](double alpha, const double* x, double* y,
                           int64_t lanes) {
    for (int64_t j = 0; j < lanes; ++j) {
      y[j] = tier == KernelTier::kGeneric ? y[j] + alpha * x[j]
                                          : std::fma(alpha, x[j], y[j]);
    }
  };
  for (int64_t k0 = 0; k0 < rank; k0 += 32) {
    const int64_t lanes = std::min<int64_t>(32, rank - k0);
    std::vector<double> g(static_cast<size_t>(lanes), 0.0);
    for (int64_t i = 0; i < rank; ++i) {
      axpy(row[i], hq + i * stride + k0, g.data(), lanes);
    }
    for (int64_t k = k0; k < k0 + lanes; ++k) {
      const double c_k = hq[k * stride + k];
      if (!(c_k > 1e-300)) continue;
      const double d_k = g[static_cast<size_t>(k - k0)] - row[k] * c_k;
      const double value =
          std::min(hi, std::max(lo, (numerator[k] - d_k) / c_k));
      axpy(value - row[k], hq + k * stride + k0, g.data(), lanes);
      row[k] = value;
    }
  }
}

TEST_P(KernelDispatchTest, CoordinateDescentMatchesScalarGradientLoop) {
  const int64_t rank = GetParam();
  const int64_t padded = PaddedRank(rank);
  Rng rng(300 + rank);
  Matrix hq = SymmetricGram(rank, 0.0, rng);
  hq(rank / 2, rank / 2) = 0.0;  // A dead component keeps its entry.
  AlignedVector start(rank), numerator(rank);
  for (int64_t r = 0; r < rank; ++r) {
    start[r] = rng.Normal();
    numerator[r] = 3.0 * rng.Normal();  // Some entries clip.
  }
  // The same system at stride `rank`, for the runtime-length table's
  // scalar tails.
  std::vector<double> tight(static_cast<size_t>(rank * rank));
  for (int64_t i = 0; i < rank; ++i) {
    for (int64_t j = 0; j < rank; ++j) {
      tight[static_cast<size_t>(i * rank + j)] = hq(i, j);
    }
  }

  for (const KernelTier tier : AvailableTiers()) {
    SCOPED_TRACE(KernelTierName(tier));
    AlignedVector expected = start;
    GradientSweepReference(tier, expected.data(), rank, hq.Row(0), padded,
                           numerator.data(), -2.0, 2.0);
    for (const RankKernelTable* kr : {&GetRankKernelTable(padded, tier),
                                      &GetRankKernelTable(0, tier)}) {
      SCOPED_TRACE(testing::Message() << "table P = " << kr->padded_rank);
      AlignedVector row = start;
      kr->coordinate_descent(row.data(), rank, hq.Row(0), numerator.data(),
                             -2.0, 2.0, padded);
      for (int64_t r = 0; r < padded; ++r) {
        ASSERT_EQ(row.data()[r], expected.data()[r]) << "r " << r;
      }
    }
    std::vector<double> unpadded(start.data(), start.data() + rank);
    GetRankKernelTable(0, tier).coordinate_descent(
        unpadded.data(), rank, tight.data(), numerator.data(), -2.0, 2.0,
        rank);
    for (int64_t r = 0; r < rank; ++r) {
      ASSERT_EQ(unpadded[static_cast<size_t>(r)], expected[r]) << "r " << r;
    }
  }
}

// ½ x'Hx − num'x, in long double.
long double RowObjective(const Matrix& hq, const AlignedVector& x,
                         const AlignedVector& numerator) {
  const int64_t rank = hq.rows();
  long double f = 0.0L;
  for (int64_t i = 0; i < rank; ++i) {
    long double hx = 0.0L;
    for (int64_t j = 0; j < rank; ++j) {
      hx += static_cast<long double>(hq(i, j)) * x[j];
    }
    f += 0.5L * x[i] * hx - static_cast<long double>(numerator[i]) * x[i];
  }
  return f;
}

TEST_P(KernelDispatchTest, CoordinateDescentStaysBoxedAndNeverRaisesObjective) {
  const int64_t rank = GetParam();
  const int64_t padded = PaddedRank(rank);
  Rng rng(500 + rank);
  Matrix hq = SymmetricGram(rank, 0.0, rng);
  // A dead component: its Gram row and column are zero.
  for (int64_t j = 0; j < rank; ++j) hq(rank / 2, j) = hq(j, rank / 2) = 0.0;
  AlignedVector start(rank), numerator(rank);
  for (int64_t r = 0; r < rank; ++r) {
    start[r] = 1.8 * (2.0 * rng.UniformDouble() - 1.0);
    // About 4·N(0, 1) before the clip, with c_k ≈ 2·rank + 1.
    numerator[r] = 4.0 * static_cast<double>(2 * rank + 1) * rng.Normal();
  }
  const long double before = RowObjective(hq, start, numerator);
  for (const KernelTier tier : AvailableTiers()) {
    SCOPED_TRACE(KernelTierName(tier));
    AlignedVector row = start;
    GetRankKernelTable(padded, tier)
        .coordinate_descent(row.data(), rank, hq.Row(0), numerator.data(),
                            -2.0, 2.0, padded);
    int clipped = 0;
    for (int64_t r = 0; r < rank; ++r) {
      ASSERT_GE(row[r], -2.0) << "r " << r;
      ASSERT_LE(row[r], 2.0) << "r " << r;
      if (std::fabs(row[r]) == 2.0) ++clipped;
    }
    EXPECT_EQ(row[rank / 2], start[rank / 2]);
    if (rank >= 5) {
      EXPECT_GT(clipped, 0);  // The box is active.
    }
    EXPECT_TRUE(row.PaddingIsZero());
    const long double after = RowObjective(hq, row, numerator);
    EXPECT_LE(after, before + 1e-12L * (1.0L + std::fabs(before)));
  }
}

TEST_P(KernelDispatchTest, CoordinateDescentConvergesToTheInteriorSolution) {
  const int64_t rank = GetParam();
  const int64_t padded = PaddedRank(rank);
  Rng rng(700 + rank);
  // Diagonally weighted, so Gauss–Seidel converges in a few dozen sweeps.
  const Matrix hq = SymmetricGram(rank, 2.0 * static_cast<double>(rank), rng);
  AlignedVector solution(rank), numerator(rank);
  for (int64_t r = 0; r < rank; ++r) {
    solution[r] = 2.0 * rng.UniformDouble() - 1.0;
  }
  for (int64_t i = 0; i < rank; ++i) {
    long double sum = 0.0L;
    for (int64_t j = 0; j < rank; ++j) {
      sum += static_cast<long double>(hq(i, j)) * solution[j];
    }
    numerator[i] = static_cast<double>(sum);
  }
  for (const KernelTier tier : AvailableTiers()) {
    SCOPED_TRACE(KernelTierName(tier));
    const RankKernelTable& kr = GetRankKernelTable(padded, tier);
    AlignedVector row(rank);
    for (int sweep = 0; sweep < 200; ++sweep) {
      kr.coordinate_descent(row.data(), rank, hq.Row(0), numerator.data(),
                            -5.0, 5.0, padded);
    }
    for (int64_t r = 0; r < rank; ++r) {
      ASSERT_NEAR(row[r], solution[r], 1e-10) << "r " << r;
    }
  }
}

// The dot-per-coordinate sweep this kernel replaced, kept as a reference
// only: d_k = dot(live row, hq row k) − row_k·c_k, in long double.
void DotFormSweep(double* row, int64_t rank, const Matrix& hq,
                  const double* numerator, double lo, double hi) {
  for (int64_t k = 0; k < rank; ++k) {
    const double c_k = hq(k, k);
    if (!(c_k > 1e-300)) continue;
    long double dot = 0.0L;
    for (int64_t r = 0; r < rank; ++r) {
      dot += static_cast<long double>(row[r]) * hq(k, r);
    }
    const long double d_k = dot - static_cast<long double>(row[k]) * c_k;
    row[k] = std::min(hi, std::max(lo, static_cast<double>(
                                           (numerator[k] - d_k) / c_k)));
  }
}

TEST_P(KernelDispatchTest, CoordinateDescentAgreesWithTheDotFormSweep) {
  const int64_t rank = GetParam();
  Rng rng(100 + rank);
  Matrix hq = SymmetricGram(rank, 0.0, rng);
  hq(rank / 2, rank / 2) = 0.0;  // A dead component keeps its entry.
  AlignedVector start(rank), numerator(rank);
  for (int64_t r = 0; r < rank; ++r) {
    start[r] = rng.Normal();
    // Every third entry is pushed well outside the box, so it clips.
    const double scale =
        r % 3 == 0 ? 8.0 * static_cast<double>(2 * rank + 1) : 3.0;
    numerator[r] = scale * rng.Normal();
  }
  std::vector<double> expected(start.data(), start.data() + rank);
  DotFormSweep(expected.data(), rank, hq, numerator.data(), -2.0, 2.0);
  if (rank >= 3) {
    EXPECT_TRUE(std::any_of(expected.begin(), expected.end(),
                            [](double v) { return std::fabs(v) == 2.0; }));
  }
  for (const KernelTier tier : AvailableTiers()) {
    SCOPED_TRACE(KernelTierName(tier));
    const ScopedProcessTier pin(tier);
    AlignedVector row = start;
    CoordinateDescentRow(row.data(), rank, hq, numerator.data(), -2.0, 2.0);
    for (int64_t r = 0; r < rank; ++r) {
      const double e = expected[static_cast<size_t>(r)];
      ASSERT_NEAR(row[r], e, 1e-12 * (1.0 + std::fabs(e))) << "r " << r;
    }
    EXPECT_EQ(row[rank / 2], start[rank / 2]);
    EXPECT_TRUE(row.PaddingIsZero());
  }
}

// ---------------------------------------------------------------------------
// GCP Newton panel passes: panel_dots and panel_axpy against the same
// tier's per-row dot and axpy, bitwise, at a partial last block (7), the
// benchmarks' rank (20) and two runtime-bound ranks (37 with a padded tail,
// 40), over 131 cells.

TEST(PanelKernelTest, PanelDotsAndAxpyEqualPerRowKernelsOnEveryTier) {
  for (const int64_t rank : {int64_t{7}, int64_t{20}, int64_t{37},
                             int64_t{40}}) {
    const int64_t padded = PaddedRank(rank);
    const int64_t cells = 131;
    Rng rng(700 + rank);
    const Matrix panel = Matrix::RandomNormal(cells, rank, rng);
    AlignedVector v(rank), y0(rank);
    std::vector<double> weights(static_cast<size_t>(cells));
    for (int64_t r = 0; r < rank; ++r) {
      v[r] = rng.Normal();
      y0[r] = rng.Normal();
    }
    for (double& w : weights) w = rng.Normal();
    for (const KernelTier tier : AvailableTiers()) {
      SCOPED_TRACE(testing::Message()
                   << KernelTierName(tier) << " rank=" << rank);
      const RankKernelTable& kr = GetRankKernelTable(padded, tier);
      std::vector<double> dots(static_cast<size_t>(cells));
      kr.panel_dots(panel.Row(0), v.data(), cells, dots.data(), padded);
      AlignedVector y = y0, expected_y = y0;
      kr.panel_axpy(weights.data(), panel.Row(0), cells, y.data(), padded);
      for (int64_t c = 0; c < cells; ++c) {
        ASSERT_EQ(std::bit_cast<uint64_t>(dots[static_cast<size_t>(c)]),
                  std::bit_cast<uint64_t>(
                      kr.dot(panel.Row(c), v.data(), padded)))
            << "cell " << c;
        kr.axpy(weights[static_cast<size_t>(c)], panel.Row(c),
                expected_y.data(), padded);
      }
      for (int64_t r = 0; r < padded; ++r) {
        ASSERT_EQ(std::bit_cast<uint64_t>(y.data()[r]),
                  std::bit_cast<uint64_t>(expected_y.data()[r]))
            << "lane " << r;
      }
    }
  }
}

// gather_hadamard_dots against HadamardOfRows and the same tier's dot,
// bitwise: every specialization class (partial last blocks 1, 3, 7, 29; the
// benchmarks' 20; the four-lane 12; a full 32) and a runtime-bound rank
// (40), with one to three factor rows per cell, over 37 cells whose rows
// repeat and interleave.
TEST(PanelKernelTest, GatherHadamardDotsEqualsHadamardOfRowsAndDot) {
  for (const int64_t rank : {int64_t{1}, int64_t{3}, int64_t{7}, int64_t{12},
                             int64_t{20}, int64_t{29}, int64_t{32},
                             int64_t{40}}) {
    const int64_t padded = PaddedRank(rank);
    const int64_t cells = 37;
    Rng rng(800 + rank);
    const Matrix factor = Matrix::RandomNormal(9, rank, rng);
    AlignedVector v(rank);
    for (int64_t r = 0; r < rank; ++r) v[r] = rng.Normal();
    for (const int64_t count : {int64_t{1}, int64_t{2}, int64_t{3}}) {
      std::vector<const double*> rows;
      for (int64_t i = 0; i < cells * count; ++i) {
        rows.push_back(factor.Row(rng.UniformInt(0, factor.rows() - 1)));
      }
      for (const KernelTier tier : AvailableTiers()) {
        SCOPED_TRACE(testing::Message() << KernelTierName(tier) << " rank="
                                        << rank << " count=" << count);
        const RankKernelTable& kr = GetRankKernelTable(padded, tier);
        Matrix panel(cells, rank);
        std::vector<double> dots(static_cast<size_t>(cells));
        kr.gather_hadamard_dots(rows.data(), count, cells, v.data(),
                                panel.Row(0), dots.data(), padded);
        AlignedVector expected(rank);
        for (int64_t c = 0; c < cells; ++c) {
          HadamardOfRows(rows.data() + c * count, static_cast<int>(count),
                         expected.data(), padded, kr);
          for (int64_t r = 0; r < padded; ++r) {
            ASSERT_EQ(std::bit_cast<uint64_t>(panel.Row(c)[r]),
                      std::bit_cast<uint64_t>(expected.data()[r]))
                << "cell " << c << " lane " << r;
          }
          ASSERT_EQ(std::bit_cast<uint64_t>(dots[static_cast<size_t>(c)]),
                    std::bit_cast<uint64_t>(
                        kr.dot(expected.data(), v.data(), padded)))
              << "cell " << c;
        }
      }
    }
  }
}

// weighted_syrk_upper against the per-cell axpy accumulation (row i of
// cell c: axpy(weights[c]·h_i, h, out row i)), bitwise on the upper
// triangle, at cell counts on both sides of the codelets' 128-cell chunks
// (and of half a chunk) and with `rows` below the padded rank (7 → 8,
// 29 → 32), into a nonzero starting matrix.
TEST(PanelKernelTest, WeightedSyrkEqualsPerCellAxpyAcrossChunks) {
  for (const int64_t rank : {int64_t{7}, int64_t{12}, int64_t{20},
                             int64_t{29}, int64_t{40}}) {
    const int64_t padded = PaddedRank(rank);
    Rng rng(900 + rank);
    const Matrix base = Matrix::RandomNormal(rank, rank, rng);
    for (const int64_t cells : {int64_t{1}, int64_t{63}, int64_t{64},
                                int64_t{65}, int64_t{127}, int64_t{128},
                                int64_t{129}, int64_t{150}}) {
      const Matrix panel = Matrix::RandomNormal(cells, rank, rng);
      std::vector<double> weights(static_cast<size_t>(cells));
      for (double& w : weights) w = 0.1 + rng.UniformDouble();
      for (const KernelTier tier : AvailableTiers()) {
        SCOPED_TRACE(testing::Message() << KernelTierName(tier) << " rank="
                                        << rank << " cells=" << cells);
        const RankKernelTable& kr = GetRankKernelTable(padded, tier);
        Matrix syrk = base, expected = base;
        kr.weighted_syrk_upper(panel.Row(0), weights.data(), cells, rank,
                               syrk.Row(0), padded);
        EXPECT_TRUE(syrk.PaddingIsZero());
        for (int64_t c = 0; c < cells; ++c) {
          const double* h = panel.Row(c);
          for (int64_t i = 0; i < rank; ++i) {
            kr.axpy(weights[static_cast<size_t>(c)] * h[i], h,
                    expected.Row(i), padded);
          }
        }
        for (int64_t i = 0; i < rank; ++i) {
          for (int64_t j = i; j < rank; ++j) {
            ASSERT_EQ(std::bit_cast<uint64_t>(syrk(i, j)),
                      std::bit_cast<uint64_t>(expected(i, j)))
                << "(" << i << ", " << j << ")";
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The library's clamped exponential: every tier's exp_clamped slot equals
// the scalar ExpClamped bitwise (the loss layer mixes the two), its error
// against long-double expl stays within 1.5 ulp across [−40, 40], and the
// edges behave as e^std::clamp(x, −40, 40) does.

// x and ExpClamped(x) for every tier, with `count` not a multiple of any
// vector width so the masked remainders run too.
void ExpectTiersMatchScalar(const std::vector<double>& x) {
  std::vector<double> out(x.size());
  for (const KernelTier tier : AvailableTiers()) {
    SCOPED_TRACE(KernelTierName(tier));
    GetRankKernelTable(0, tier).exp_clamped(
        x.data(), out.data(), static_cast<int64_t>(x.size()));
    for (size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(out[i]),
                std::bit_cast<uint64_t>(ExpClamped(x[i])))
          << "x = " << x[i];
    }
  }
}

TEST(ExpClampedTest, EveryTierEqualsTheScalarFormBitwise) {
  Rng rng(0xe4);
  std::vector<double> x;
  for (int i = 0; i < 100003; ++i) {
    x.push_back(-45.0 + 90.0 * rng.UniformDouble());  // Past both edges.
  }
  for (int i = 0; i < 1001; ++i) x.push_back(1e-6 * rng.Normal());
  ExpectTiersMatchScalar(x);
  // In-place use, as the loss layer may call it.
  for (const KernelTier tier : AvailableTiers()) {
    std::vector<double> in_place(x.begin(), x.begin() + 37);
    GetRankKernelTable(0, tier).exp_clamped(in_place.data(), in_place.data(),
                                            37);
    for (size_t i = 0; i < in_place.size(); ++i) {
      ASSERT_EQ(in_place[i], ExpClamped(x[i])) << KernelTierName(tier);
    }
  }
}

TEST(ExpClampedTest, WithinOneAndAHalfUlpOfLongDoubleExp) {
  // A uniform grid of 10⁶ + 1 points over [−40, 40], both ends included.
  constexpr int64_t kPoints = 1000001;
  std::vector<double> x(kPoints), out(kPoints);
  for (int64_t i = 0; i < kPoints; ++i) {
    x[static_cast<size_t>(i)] =
        -40.0 + 80.0 * static_cast<double>(i) / (kPoints - 1);
  }
  GetRankKernelTable(0).exp_clamped(x.data(), out.data(), kPoints);
  double worst = 0.0, worst_x = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const long double exact = std::exp(static_cast<long double>(x[i]));
    const double ulp =
        std::ldexp(1.0, std::ilogb(static_cast<double>(exact)) - 52);
    const auto err = static_cast<double>(
        std::fabs(static_cast<long double>(out[i]) - exact) / ulp);
    if (err > worst) {
      worst = err;
      worst_x = x[i];
    }
  }
  EXPECT_LE(worst, 1.5) << "at x = " << worst_x;
  ExpectTiersMatchScalar(x);
}

TEST(ExpClampedTest, EdgesAndNonFiniteInputsFollowTheClamp) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(ExpClamped(0.0), 1.0);
  EXPECT_EQ(ExpClamped(-0.0), 1.0);
  const double top = ExpClamped(40.0);
  const double bottom = ExpClamped(-40.0);
  EXPECT_NEAR(top, std::exp(40.0), std::exp(40.0) * 4e-16);
  EXPECT_NEAR(bottom, std::exp(-40.0), std::exp(-40.0) * 4e-16);
  for (const double beyond : {40.0 + 1e-9, 41.0, 1e300, kInf}) {
    EXPECT_EQ(ExpClamped(beyond), top) << beyond;
    EXPECT_EQ(ExpClamped(-beyond), bottom) << -beyond;
  }
  EXPECT_TRUE(std::isnan(ExpClamped(nan)));
  // A NaN in any lane of a vector block stays NaN and leaves its
  // neighbours alone; so do ±inf.
  std::vector<double> x = {0.5, nan, -1.0, kInf, -kInf, 2.0, nan, 40.0,
                           -40.0, 3.0, nan};
  ExpectTiersMatchScalar(x);
  for (const KernelTier tier : AvailableTiers()) {
    std::vector<double> out(x.size());
    GetRankKernelTable(0, tier).exp_clamped(x.data(), out.data(),
                                            static_cast<int64_t>(x.size()));
    EXPECT_TRUE(std::isnan(out[1]) && std::isnan(out[6]) &&
                std::isnan(out[10]))
        << KernelTierName(tier);
    EXPECT_EQ(out[3], top) << KernelTierName(tier);
    EXPECT_EQ(out[4], bottom) << KernelTierName(tier);
  }
}

// ---------------------------------------------------------------------------
// Hadamard row product + MTTKRP rows vs a std::map tensor reference.

TEST_P(KernelDispatchTest, HadamardRowProductMatchesNaive) {
  const int64_t rank = GetParam();
  Rng rng(50 + rank);
  std::vector<Matrix> factors;
  const std::vector<int64_t> dims = {4, 5, 3};
  for (int64_t d : dims) {
    factors.push_back(Matrix::RandomNormal(d, rank, rng));
  }
  AlignedVector out(rank);
  const ModeIndex index{2, 4, 1};
  for (int skip = -1; skip < 3; ++skip) {
    HadamardRowProduct(factors, index, skip, out.data());
    for (int64_t r = 0; r < rank; ++r) {
      double expected = 1.0;
      for (int m = 0; m < 3; ++m) {
        if (m == skip) continue;
        expected *= factors[static_cast<size_t>(m)](index[m], r);
      }
      ASSERT_EQ(out[r], expected) << "skip " << skip << " r " << r;
    }
    EXPECT_TRUE(out.PaddingIsZero()) << "skip " << skip;
  }
}

// Builds a small random sparse tensor plus a std::map mirror.
SparseTensor RandomTensor(const std::vector<int64_t>& dims, int64_t nnz,
                          Rng& rng,
                          std::map<std::vector<int32_t>, double>* mirror) {
  SparseTensor x(dims);
  for (int64_t k = 0; k < nnz; ++k) {
    ModeIndex index;
    std::vector<int32_t> key;
    for (int64_t d : dims) {
      const auto i = static_cast<int32_t>(rng.UniformInt(0, d - 1));
      index.PushBack(i);
      key.push_back(i);
    }
    const double v = rng.Normal();
    x.Add(index, v);
    (*mirror)[key] += v;
  }
  return x;
}

TEST_P(KernelDispatchTest, MttkrpRow3ModeFusedMatchesNaive) {
  const int64_t rank = GetParam();
  Rng rng(60 + rank);
  const std::vector<int64_t> dims = {6, 5, 4};
  std::map<std::vector<int32_t>, double> mirror;
  SparseTensor x = RandomTensor(dims, 40, rng, &mirror);
  std::vector<Matrix> factors;
  for (int64_t d : dims) {
    factors.push_back(Matrix::RandomNormal(d, rank, rng));
  }

  AlignedVector out(rank);
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t row = 0; row < dims[static_cast<size_t>(mode)]; ++row) {
      MttkrpRow(x, factors, mode, row, out.data());
      for (int64_t r = 0; r < rank; ++r) {
        double expected = 0.0;
        for (const auto& [key, value] : mirror) {
          if (value == 0.0 || key[static_cast<size_t>(mode)] != row) continue;
          double prod = value;
          for (int m = 0; m < 3; ++m) {
            if (m == mode) continue;
            prod *= factors[static_cast<size_t>(m)](key[static_cast<size_t>(m)],
                                                    r);
          }
          expected += prod;
        }
        ASSERT_NEAR(out[r], expected, 1e-10 * (1.0 + std::fabs(expected)))
            << "mode " << mode << " row " << row << " r " << r;
      }
      EXPECT_TRUE(out.PaddingIsZero());
    }
  }
}

TEST_P(KernelDispatchTest, MttkrpRow4ModeGenericMatchesNaive) {
  const int64_t rank = GetParam();
  Rng rng(70 + rank);
  const std::vector<int64_t> dims = {4, 3, 3, 4};
  std::map<std::vector<int32_t>, double> mirror;
  SparseTensor x = RandomTensor(dims, 50, rng, &mirror);
  std::vector<Matrix> factors;
  for (int64_t d : dims) {
    factors.push_back(Matrix::RandomNormal(d, rank, rng));
  }

  AlignedVector out(rank), had(rank);
  for (int mode = 0; mode < 4; ++mode) {
    for (int64_t row = 0; row < dims[static_cast<size_t>(mode)]; ++row) {
      MttkrpRow(x, factors, mode, row, out.data(), had.data());
      for (int64_t r = 0; r < rank; ++r) {
        double expected = 0.0;
        for (const auto& [key, value] : mirror) {
          if (value == 0.0 || key[static_cast<size_t>(mode)] != row) continue;
          double prod = value;
          for (int m = 0; m < 4; ++m) {
            if (m == mode) continue;
            prod *= factors[static_cast<size_t>(m)](key[static_cast<size_t>(m)],
                                                    r);
          }
          expected += prod;
        }
        ASSERT_NEAR(out[r], expected, 1e-10 * (1.0 + std::fabs(expected)));
      }
      EXPECT_TRUE(out.PaddingIsZero());
      EXPECT_TRUE(had.PaddingIsZero());
    }
  }
}

TEST_P(KernelDispatchTest, MttkrpIntoMatchesRowKernel) {
  const int64_t rank = GetParam();
  Rng rng(80 + rank);
  const std::vector<int64_t> dims = {6, 5, 4};
  std::map<std::vector<int32_t>, double> mirror;
  SparseTensor x = RandomTensor(dims, 40, rng, &mirror);
  std::vector<Matrix> factors;
  for (int64_t d : dims) {
    factors.push_back(Matrix::RandomNormal(d, rank, rng));
  }
  for (int mode = 0; mode < 3; ++mode) {
    const Matrix full = Mttkrp(x, factors, mode);
    EXPECT_TRUE(full.PaddingIsZero());
    AlignedVector row_out(rank);
    for (int64_t row = 0; row < dims[static_cast<size_t>(mode)]; ++row) {
      MttkrpRow(x, factors, mode, row, row_out.data());
      for (int64_t r = 0; r < rank; ++r) {
        // Same kernels, different entry order (pool vs slice order):
        // tolerance, not bitwise.
        ASSERT_NEAR(full(row, r), row_out[r],
                    1e-10 * (1.0 + std::fabs(row_out[r])));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cholesky: the library's U'U factorization and solve against a textbook
// lower factorization and substitution on (i, j) indexing.

// A = L L' by the textbook column formula; false on a non-positive pivot.
bool TextbookCholesky(const Matrix& a, Matrix& lower) {
  const int64_t n = a.rows();
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t i = j; i < n; ++i) {
      double sum = a(i, j);
      for (int64_t k = 0; k < j; ++k) sum -= lower(i, k) * lower(j, k);
      if (i == j) {
        if (!(sum > 0.0)) return false;
        lower(j, j) = std::sqrt(sum);
      } else {
        lower(i, j) = sum / lower(j, j);
      }
    }
  }
  return true;
}

// L L' x = b by forward then back substitution.
std::vector<double> TextbookSolve(const Matrix& lower,
                                  const AlignedVector& rhs) {
  const int64_t n = lower.rows();
  std::vector<double> y(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    double sum = rhs[i];
    for (int64_t k = 0; k < i; ++k) sum -= lower(i, k) * y[static_cast<size_t>(k)];
    y[static_cast<size_t>(i)] = sum / lower(i, i);
  }
  std::vector<double> z(y);
  for (int64_t i = n - 1; i >= 0; --i) {
    double sum = z[static_cast<size_t>(i)];
    for (int64_t k = i + 1; k < n; ++k) {
      sum -= lower(k, i) * z[static_cast<size_t>(k)];
    }
    z[static_cast<size_t>(i)] = sum / lower(i, i);
  }
  return z;
}

TEST_P(KernelDispatchTest, CholeskySolveMatchesNaiveSubstitution) {
  const int64_t n = GetParam();
  Rng rng(90 + n);
  Matrix b = Matrix::RandomNormal(2 * n, n, rng);
  Matrix spd = MultiplyTransposeA(b, b);
  for (int64_t i = 0; i < n; ++i) spd(i, i) += 1.0;

  Matrix lower(n, n), upper(n, n);
  ASSERT_TRUE(TextbookCholesky(spd, lower));
  ASSERT_TRUE(CholeskyFactorizeUpperInto(spd, upper));
  EXPECT_TRUE(upper.PaddingIsZero());

  AlignedVector rhs(n), x(n);
  for (int64_t i = 0; i < n; ++i) rhs[i] = rng.Normal();

  // Kernel path.
  for (int64_t i = 0; i < n; ++i) x[i] = rhs[i];
  CholeskySolveUpperInPlace(upper, x.data());

  const std::vector<double> z = TextbookSolve(lower, rhs);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_NEAR(x[i], z[static_cast<size_t>(i)],
                1e-9 * (1.0 + std::fabs(z[static_cast<size_t>(i)])));
  }
  EXPECT_TRUE(x.PaddingIsZero());
}

// The hot-path U'U (row-suffix) factorization agrees with the textbook
// lower factorization: U = L' up to rounding, and both solves recover the
// same solution.
TEST_P(KernelDispatchTest, UpperCholeskyMatchesLowerFactorization) {
  const int64_t n = GetParam();
  Rng rng(95 + n);
  Matrix b = Matrix::RandomNormal(2 * n, n, rng);
  Matrix spd = MultiplyTransposeA(b, b);
  for (int64_t i = 0; i < n; ++i) spd(i, i) += 1.0;

  Matrix lower(n, n), upper(n, n);
  ASSERT_TRUE(TextbookCholesky(spd, lower));
  ASSERT_TRUE(CholeskyFactorizeUpperInto(spd, upper));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i; j < n; ++j) {
      ASSERT_NEAR(upper(i, j), lower(j, i),
                  1e-9 * (1.0 + std::fabs(lower(j, i))))
          << i << "," << j;
    }
  }

  AlignedVector rhs(n), x_upper(n);
  for (int64_t i = 0; i < n; ++i) {
    rhs[i] = rng.Normal();
    x_upper[i] = rhs[i];
  }
  const std::vector<double> x_lower = TextbookSolve(lower, rhs);
  CholeskySolveUpperInPlace(upper, x_upper.data());
  for (int64_t i = 0; i < n; ++i) {
    const double expected = x_lower[static_cast<size_t>(i)];
    ASSERT_NEAR(x_upper[i], expected, 1e-8 * (1.0 + std::fabs(expected)));
  }
  EXPECT_TRUE(upper.PaddingIsZero());
}

// The Gram solve slots against the row-suffix loops over the same tier's
// runtime-length axpy and dot, bitwise, on every tier and order 1..40 (so
// the register-held forms of every padded rank and P = 0 run): the factor's
// upper triangle and padding, the solution, a failure at the same pivot
// with the same rows before it, and exact zeros (both signs) in the factor.

// The loops as the library ran them through the table: the reference.
int64_t RowSuffixCholesky(const RankKernelTable& rt, const Matrix& a,
                          Matrix& upper) {
  const int64_t n = a.rows();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i; j < n; ++j) upper(i, j) = a(i, j);
  }
  for (int64_t k = 0; k < n; ++k) {
    double* row_k = upper.Row(k);
    const double pivot = row_k[k];
    if (pivot <= 0.0 || !std::isfinite(pivot)) return k;
    const double diag = std::sqrt(pivot);
    row_k[k] = diag;
    const double inv = 1.0 / diag;
    for (int64_t j = k + 1; j < n; ++j) row_k[j] *= inv;
    for (int64_t i = k + 1; i < n; ++i) {
      const double u_ki = row_k[i];
      if (u_ki == 0.0) continue;
      rt.axpy(-u_ki, row_k + i, upper.Row(i) + i, n - i);
    }
  }
  return n;
}

void RowSuffixSolve(const RankKernelTable& rt, const Matrix& upper,
                    double* x) {
  const int64_t n = upper.rows();
  for (int64_t k = 0; k < n; ++k) {
    const double* row = upper.Row(k);
    const double y_k = x[k] / row[k];
    x[k] = y_k;
    rt.axpy(-y_k, row + k + 1, x + k + 1, n - k - 1);
  }
  for (int64_t i = n - 1; i >= 0; --i) {
    const double* row = upper.Row(i);
    x[i] = (x[i] - rt.dot(row + i + 1, x + i + 1, n - i - 1)) / row[i];
  }
}

// Upper-triangle rows [0, rows) and every padding lane, bit for bit.
void ExpectSameUpperRows(const Matrix& actual, const Matrix& expected,
                         int64_t rows) {
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = i; j < actual.cols(); ++j) {
      ASSERT_EQ(std::bit_cast<uint64_t>(actual(i, j)),
                std::bit_cast<uint64_t>(expected(i, j)))
          << "(" << i << ", " << j << ")";
    }
  }
  EXPECT_TRUE(actual.PaddingIsZero());
}

void ExpectSlotsMatchRowSuffixLoops(const Matrix& h, const char* what) {
  const int64_t n = h.rows();
  const int64_t padded = PaddedRank(n);
  Rng rng(500 + n);
  std::vector<double> rhs(static_cast<size_t>(n));
  for (double& v : rhs) v = rng.Normal();
  for (const KernelTier tier : AvailableTiers()) {
    SCOPED_TRACE(testing::Message()
                 << what << " " << KernelTierName(tier) << " n=" << n);
    const RankKernelTable& rt = GetRankKernelTable(0, tier);
    const RankKernelTable& kr = GetRankKernelTable(padded, tier);
    Matrix expected(n, n), upper(n, n);
    upper.Fill(7.0);  // Stale values below the diagonal must not matter.
    const int64_t failed_at = RowSuffixCholesky(rt, h, expected);
    const bool ok = kr.cholesky_upper(h.Row(0), upper.Row(0), n, padded);
    ASSERT_EQ(ok, failed_at == n);
    ExpectSameUpperRows(upper, expected, failed_at);
    if (!ok) continue;
    // Unpadded b and x: the slot touches `order` values of each. In place
    // (b == x) and out of place give the same bits.
    std::vector<double> x(rhs.size()), in_place(rhs), expected_x(rhs);
    kr.cholesky_solve_upper(upper.Row(0), rhs.data(), x.data(), n, padded);
    kr.cholesky_solve_upper(upper.Row(0), in_place.data(), in_place.data(),
                            n, padded);
    ASSERT_EQ(x, in_place);
    RowSuffixSolve(rt, expected, expected_x.data());
    for (int64_t r = 0; r < n; ++r) {
      ASSERT_EQ(std::bit_cast<uint64_t>(x[static_cast<size_t>(r)]),
                std::bit_cast<uint64_t>(expected_x[static_cast<size_t>(r)]))
          << "x[" << r << "]";
    }
  }
}

TEST(GramSolveSlotTest, EqualRowSuffixLoopsBitwiseOnEveryTier) {
  for (int64_t n = 1; n <= 40; ++n) {
    Rng rng(400 + n);
    Matrix b = Matrix::RandomNormal(n + 3, n, rng);
    Matrix spd = MultiplyTransposeA(b, b);
    for (int64_t i = 0; i < n; ++i) spd(i, i) += 0.5;
    ExpectSlotsMatchRowSuffixLoops(spd, "spd");

    // Exact zeros in the factor: a sparse B leaves zeros in H that
    // survive as u_ki == 0 (some of them −0) and take the skip.
    Matrix sparse(2 * n, n);
    for (int64_t i = 0; i < 2 * n; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        if (rng.UniformDouble() < 0.15) sparse(i, j) = rng.Normal();
      }
    }
    Matrix gram = MultiplyTransposeA(sparse, sparse);
    for (int64_t i = 0; i < n; ++i) {
      gram(i, i) += 1.0;
      for (int64_t j = i + 1; j < n; ++j) {
        if (gram(i, j) == 0.0 && (i + j) % 3 == 0) gram(i, j) = -0.0;
      }
    }
    ExpectSlotsMatchRowSuffixLoops(gram, "zeros");

    // Not positive definite: a pivot fails part-way (or at 0 for n = 1).
    Matrix indefinite = spd;
    const int64_t bad = n / 2;
    for (int64_t j = 0; j < n; ++j) {
      indefinite(bad, j) = indefinite(j, bad) = spd(0, j);
    }
    indefinite(bad, bad) = bad == 0 ? -1.0 : spd(0, 0) - 1e-3;
    ExpectSlotsMatchRowSuffixLoops(indefinite, "indefinite");
  }
}

// ---------------------------------------------------------------------------
// The two intrinsic tiers return the same bits from every slot: the AVX2
// codelets run the AVX-512 grouping of every dot, so a slot can move
// between the tables without changing a trajectory. Each slot runs on the
// same inputs at both tiers, at every padded rank 4–32 (every data length
// 1–32, so the padding lanes are compared too) and at the runtime-bound
// tables' lengths and orders 1–40, with exact zeros of both signs in the
// inputs. Outputs are compared with kGuard lanes past their end, which
// must stay untouched; the SYRK and the factor only where their contract
// specifies them (the upper triangle and its padding lanes).

constexpr int64_t kGuard = 8;
constexpr double kSentinel = 12345.0;

// Random values with exact +0.0 and −0.0 mixed in.
std::vector<double> SignedZeroValues(int64_t count, Rng& rng) {
  std::vector<double> v(static_cast<size_t>(count));
  for (double& x : v) {
    const double u = rng.UniformDouble();
    x = u < 0.1 ? 0.0 : u < 0.2 ? -0.0 : rng.Normal();
  }
  return v;
}

// A buffer of `len` data values, zero padding up to n, then guard lanes.
std::vector<double> Padded(const std::vector<double>& data, int64_t n) {
  std::vector<double> v(data);
  v.resize(static_cast<size_t>(n), 0.0);
  v.resize(static_cast<size_t>(n + kGuard), kSentinel);
  return v;
}

void Record(std::vector<uint64_t>& bits, const double* p, int64_t count) {
  for (int64_t i = 0; i < count; ++i) {
    bits.push_back(std::bit_cast<uint64_t>(p[i]));
  }
}

// The upper triangle of a rows × stride row-major matrix, padding included.
void RecordUpper(std::vector<uint64_t>& bits, const std::vector<double>& m,
                 int64_t rows, int64_t stride) {
  for (int64_t i = 0; i < rows; ++i) {
    Record(bits, m.data() + i * stride + i, stride - i);
  }
}

// Every slot's outputs at data length `len`: padded length n for the
// vector slots (len for the runtime-bound table), syrk_n for the SYRK (which
// needs a multiple of 4) and stride n for the Gram solve of order len.
std::map<std::string, std::vector<uint64_t>> SlotBits(
    const RankKernelTable& kr, int64_t len, int64_t n, int64_t syrk_n) {
  Rng rng(1000 + 97 * static_cast<uint64_t>(len) +
          static_cast<uint64_t>(kr.padded_rank));
  const std::vector<double> a = Padded(SignedZeroValues(len, rng), n);
  const std::vector<double> b = Padded(SignedZeroValues(len, rng), n);
  const std::vector<double> c = Padded(SignedZeroValues(len, rng), n);
  const std::vector<double> zeros = Padded(std::vector<double>(
      static_cast<size_t>(len), -0.0), n);
  std::map<std::string, std::vector<uint64_t>> out;
  std::vector<double> y;

  y = Padded({}, n);
  kr.fill(y.data(), -1.75, n);
  Record(out["fill"], y.data(), n + kGuard);
  y = Padded({}, n);
  kr.copy(a.data(), y.data(), n);
  Record(out["copy"], y.data(), n + kGuard);
  y = b;
  kr.axpy(-1.3, a.data(), y.data(), n);
  Record(out["axpy"], y.data(), n + kGuard);
  y = Padded({}, n);
  kr.mul(a.data(), b.data(), y.data(), n);
  Record(out["mul"], y.data(), n + kGuard);
  y = a;
  kr.mul_accum(y.data(), b.data(), n);
  Record(out["mul_accum"], y.data(), n + kGuard);
  y = c;
  kr.fma3(0.77, a.data(), b.data(), y.data(), n);
  Record(out["fma3"], y.data(), n + kGuard);
  for (const auto& [x, z] :
       {std::pair{&a, &b}, std::pair{&a, &a}, std::pair{&zeros, &b},
        std::pair{&zeros, &zeros}}) {
    const double d = kr.dot(x->data(), z->data(), n);
    Record(out["dot"], &d, 1);
  }
  {
    // A len × n Gram from its own stream, leaving later slots' inputs as
    // they were.
    Rng gram_rng(2000 + 97 * static_cast<uint64_t>(len));
    std::vector<double> gram;
    for (int64_t i = 0; i < len; ++i) {
      const std::vector<double> row =
          Padded(SignedZeroValues(len, gram_rng), n);
      gram.insert(gram.end(), row.begin(), row.begin() + n);
    }
    gram.resize(static_cast<size_t>(len * n + kGuard), kSentinel);
    kr.gram_rank_two_update(a.data(), b.data(), gram.data(), len, n);
    Record(out["gram_rank_two_update"], gram.data(), len * n + kGuard);
  }

  // Panels of 131 cells cross the SYRK's 128-cell chunks.
  const int64_t cells = 131;
  std::vector<double> panel, weights = SignedZeroValues(cells, rng);
  for (int64_t i = 0; i < cells; ++i) {
    std::vector<double> row = Padded(SignedZeroValues(len, rng), n);
    panel.insert(panel.end(), row.begin(), row.begin() + n);
  }
  std::vector<double> dots(static_cast<size_t>(cells + kGuard), kSentinel);
  kr.panel_dots(panel.data(), a.data(), cells, dots.data(), n);
  Record(out["panel_dots"], dots.data(), cells + kGuard);
  y = c;
  kr.panel_axpy(weights.data(), panel.data(), cells, y.data(), n);
  Record(out["panel_axpy"], y.data(), n + kGuard);
  for (int64_t count = 1; count <= 3; ++count) {
    std::vector<const double*> rows;
    for (int64_t i = 0; i < 9 * count; ++i) {
      rows.push_back(panel.data() + rng.UniformInt(0, cells - 1) * n);
    }
    std::vector<double> staged(static_cast<size_t>(9 * n + kGuard), kSentinel);
    std::fill(dots.begin(), dots.end(), kSentinel);
    kr.gather_hadamard_dots(rows.data(), count, 9, b.data(), staged.data(),
                            dots.data(), n);
    Record(out["gather_hadamard_dots"], staged.data(), 9 * n + kGuard);
    Record(out["gather_hadamard_dots"], dots.data(), 9 + kGuard);
  }

  std::vector<double> syrk_panel;
  for (int64_t i = 0; i < cells; ++i) {
    std::vector<double> row = Padded(SignedZeroValues(len, rng), syrk_n);
    syrk_panel.insert(syrk_panel.end(), row.begin(), row.begin() + syrk_n);
  }
  std::vector<double> syrk;
  for (int64_t i = 0; i < len; ++i) {
    std::vector<double> row = Padded(SignedZeroValues(len, rng), syrk_n);
    syrk.insert(syrk.end(), row.begin(), row.begin() + syrk_n);
  }
  kr.weighted_syrk_upper(syrk_panel.data(), weights.data(), cells, len,
                         syrk.data(), syrk_n);
  RecordUpper(out["weighted_syrk_upper"], syrk, len, syrk_n);

  // hq = K'K over n columns, one dead component, a clipping numerator.
  std::vector<double> hq(static_cast<size_t>(len * n), 0.0);
  for (int64_t k = 0; k < 2 * len + 1; ++k) {
    const std::vector<double> r = SignedZeroValues(len, rng);
    for (int64_t i = 0; i < len; ++i) {
      for (int64_t j = 0; j < len; ++j) {
        hq[static_cast<size_t>(i * n + j)] += r[i] * r[j];
      }
    }
  }
  hq[static_cast<size_t>((len / 2) * n + len / 2)] = 0.0;
  std::vector<double> numerator = SignedZeroValues(len, rng);
  for (double& v : numerator) v *= 3.0;
  y = a;
  kr.coordinate_descent(y.data(), len, hq.data(), numerator.data(), -2.0, 2.0,
                        n);
  Record(out["coordinate_descent"], y.data(), n + kGuard);

  std::vector<double> x = SignedZeroValues(len + 3, rng);
  for (const double v : {0.0, -0.0, 1e-300, -45.0, 45.0,
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    x[rng.UniformInt(0, len + 2)] = v;
  }
  for (double& v : x) v *= 20.0;
  y.assign(static_cast<size_t>(len + kGuard), kSentinel);
  kr.exp_clamped(x.data(), y.data(), len);
  Record(out["exp_clamped"], y.data(), len + kGuard);

  // The Gram solve on a sparse Gram (exact zeros, some of them −0, which
  // take the factorization's skip) and on an indefinite matrix that fails
  // part-way.
  std::vector<double> gram(static_cast<size_t>(len * n), 0.0);
  for (int64_t k = 0; k < 2 * len; ++k) {
    std::vector<double> r(static_cast<size_t>(len), 0.0);
    for (double& v : r) {
      if (rng.UniformDouble() < 0.15) v = rng.Normal();
    }
    for (int64_t i = 0; i < len; ++i) {
      for (int64_t j = 0; j < len; ++j) {
        gram[static_cast<size_t>(i * n + j)] += r[i] * r[j];
      }
    }
  }
  for (int64_t i = 0; i < len; ++i) {
    gram[static_cast<size_t>(i * n + i)] += 1.0;
    for (int64_t j = i + 1; j < len; ++j) {
      double& g = gram[static_cast<size_t>(i * n + j)];
      if (g == 0.0 && (i + j) % 3 == 0) g = -0.0;
    }
  }
  std::vector<double> indefinite = gram;
  indefinite[static_cast<size_t>((len / 2) * n + len / 2)] = -1.0;
  for (const std::vector<double>* h : {&gram, &indefinite}) {
    std::vector<double> u(static_cast<size_t>(len * n), 7.0);
    const double ok = kr.cholesky_upper(h->data(), u.data(), len, n) ? 1 : 0;
    Record(out["cholesky_upper"], &ok, 1);
    RecordUpper(out["cholesky_upper"], u, len, n);
    if (ok == 0) continue;
    const std::vector<double> rhs = Padded(SignedZeroValues(len, rng), len);
    y.assign(rhs.size(), kSentinel);
    kr.cholesky_solve_upper(u.data(), rhs.data(), y.data(), len, n);
    Record(out["cholesky_solve_upper"], y.data(), len + kGuard);
    y = rhs;
    kr.cholesky_solve_upper(u.data(), y.data(), y.data(), len, n);
    Record(out["cholesky_solve_upper"], y.data(), len + kGuard);
  }
  return out;
}

void ExpectSameSlotBits(int64_t padded_rank, int64_t len, int64_t n,
                        int64_t syrk_n) {
  const RankKernelTable& avx2 =
      GetRankKernelTable(padded_rank, KernelTier::kAvx2);
  const RankKernelTable& avx512 =
      GetRankKernelTable(padded_rank, KernelTier::kAvx512);
  ASSERT_EQ(avx2.tier, KernelTier::kAvx2);
  ASSERT_EQ(avx512.tier, KernelTier::kAvx512);
  const auto expected = SlotBits(avx512, len, n, syrk_n);
  const auto actual = SlotBits(avx2, len, n, syrk_n);
  ASSERT_EQ(actual.size(), 16u);
  for (const auto& [slot, bits] : expected) {
    SCOPED_TRACE(testing::Message() << slot << " padded_rank=" << padded_rank
                                    << " len=" << len);
    const std::vector<uint64_t>& other = actual.at(slot);
    ASSERT_EQ(other.size(), bits.size());
    for (size_t i = 0; i < bits.size(); ++i) {
      ASSERT_EQ(other[i], bits[i]) << "output " << i;
    }
  }
}

TEST(IntrinsicTierTest, Avx2AndAvx512SlotsReturnTheSameBits) {
  if (!KernelTierSupported(KernelTier::kAvx2) ||
      !KernelTierSupported(KernelTier::kAvx512)) {
    GTEST_SKIP() << "host or build lacks an intrinsic tier";
  }
  for (int64_t len = 1; len <= 40; ++len) {
    const int64_t padded = PaddedRank(len);
    if (padded <= 32) ExpectSameSlotBits(padded, len, padded, padded);
    ExpectSameSlotBits(0, len, len, padded);
  }
}

// ---------------------------------------------------------------------------
// The padding invariant survives real updater runs: after hundreds of
// events through SNS-VEC / SNS+VEC / SNS-RND, every factor and Gram matrix
// still has exactly-zero padding lanes.

SparseTensor DenseWindowFromModel(const KruskalModel& model) {
  std::vector<int64_t> dims;
  for (int m = 0; m < model.num_modes(); ++m) {
    dims.push_back(model.factor(m).rows());
  }
  SparseTensor x(dims);
  ModeIndex index;
  for (size_t m = 0; m < dims.size(); ++m) index.PushBack(0);
  while (true) {
    x.Set(index, model.Evaluate(index));
    int m = static_cast<int>(dims.size()) - 1;
    while (m >= 0) {
      if (++index[m] < dims[static_cast<size_t>(m)]) break;
      index[m] = 0;
      --m;
    }
    if (m < 0) break;
  }
  return x;
}

// Options that build the row updater of `variant` with threshold θ, clip
// bound η and a θ-sampling Rng seeded `rng_seed` (RowUpdater seeds its Rng
// with options.seed + 1).
ContinuousCpdOptions RowOptions(SnsVariant variant, int64_t theta = 20,
                                double eta = 1000.0, uint64_t rng_seed = 1) {
  ContinuousCpdOptions options;
  options.variant = variant;
  options.sample_threshold = theta;
  options.clip_bound = eta;
  options.seed = rng_seed - 1;
  return options;
}

void RunPaddingInvariantCheck(RowUpdater& updater, int64_t rank,
                              uint64_t seed) {
  Rng rng(seed);
  const int w_size = 4;
  const std::vector<int64_t> dims = {5, 6, w_size};
  KruskalModel model = KruskalModel::Random(dims, rank, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);

  for (int step = 0; step < 120; ++step) {
    WindowDelta delta;
    delta.kind = EventKind::kArrival;
    delta.w = 0;
    const auto i0 = static_cast<int32_t>(rng.UniformInt(0, dims[0] - 1));
    const auto i1 = static_cast<int32_t>(rng.UniformInt(0, dims[1] - 1));
    const double v = rng.UniformDouble(0.5, 1.5);
    delta.tuple = Tuple{{i0, i1}, v, 0};
    const ModeIndex cell = ModeIndex{i0, i1}.WithAppended(w_size - 1);
    window.Add(cell, v);
    delta.cells.push_back({cell, v});
    updater.OnEvent(window, delta, state);
  }
  for (int m = 0; m < state.num_modes(); ++m) {
    EXPECT_TRUE(state.model.factor(m).PaddingIsZero()) << "factor " << m;
    EXPECT_TRUE(state.grams[static_cast<size_t>(m)].PaddingIsZero())
        << "gram " << m;
  }
}

TEST_P(KernelDispatchTest, PaddingStaysZeroThroughSnsVecEvents) {
  // Cap the rank: the dense differential window is O(Π dims) work per event.
  const int64_t rank = std::min<int64_t>(GetParam(), 20);
  RowUpdater updater(RowOptions(SnsVariant::kVec));
  RunPaddingInvariantCheck(updater, rank, 0x9add1);
}

TEST_P(KernelDispatchTest, PaddingStaysZeroThroughSnsVecPlusEvents) {
  const int64_t rank = std::min<int64_t>(GetParam(), 20);
  RowUpdater updater(RowOptions(SnsVariant::kVecPlus, 20, /*eta=*/50.0));
  RunPaddingInvariantCheck(updater, rank, 0x9add2);
}

TEST_P(KernelDispatchTest, PaddingStaysZeroThroughSnsRndEvents) {
  const int64_t rank = std::min<int64_t>(GetParam(), 20);
  RowUpdater updater(
      RowOptions(SnsVariant::kRnd, /*theta=*/2, 1000.0, /*rng_seed=*/5));
  RunPaddingInvariantCheck(updater, rank, 0x9add3);
}

}  // namespace
}  // namespace sns
