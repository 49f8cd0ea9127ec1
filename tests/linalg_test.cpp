// Unit and property tests for the dense linear algebra substrate.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/gram_solve.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"

namespace sns {
namespace {

Matrix RandomSpd(int64_t n, Rng& rng, double ridge = 0.5) {
  Matrix b = Matrix::RandomNormal(n, n, rng);
  Matrix spd = MultiplyTransposeA(b, b);
  for (int64_t i = 0; i < n; ++i) spd(i, i) += ridge;
  return spd;
}

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(MatrixTest, IdentityAndFrobenius) {
  Matrix id = Matrix::Identity(4);
  EXPECT_DOUBLE_EQ(id.FrobeniusNorm(), 2.0);
  EXPECT_DOUBLE_EQ(id(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(id(2, 1), 0.0);
}

TEST(MatrixTest, MultiplyMatchesHandComputation) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Matrix b(3, 2);
  b(0, 0) = 7;  b(0, 1) = 8;
  b(1, 0) = 9;  b(1, 1) = 10;
  b(2, 0) = 11; b(2, 1) = 12;
  Matrix c = Multiply(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(MatrixTest, MultiplyTransposeAMatchesExplicitTranspose) {
  Rng rng(5);
  Matrix a = Matrix::RandomNormal(6, 3, rng);
  Matrix b = Matrix::RandomNormal(6, 4, rng);
  Matrix expected = Multiply(a.Transposed(), b);
  Matrix actual = MultiplyTransposeA(a, b);
  EXPECT_LT(MaxAbsDiff(expected, actual), 1e-12);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(6);
  Matrix a = Matrix::RandomNormal(5, 7, rng);
  EXPECT_LT(MaxAbsDiff(a, a.Transposed().Transposed()), 1e-15);
}

TEST(MatrixTest, HadamardElementwise) {
  Rng rng(8);
  Matrix a = Matrix::RandomNormal(4, 4, rng);
  Matrix b = Matrix::RandomNormal(4, 4, rng);
  Matrix h = Hadamard(a, b);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(h(i, j), a(i, j) * b(i, j));
    }
  }
}

// The Gram identity the SliceNStitch derivation leans on (Eq. 8):
// (A ⊙ B)'(A ⊙ B) = (A'A) ∗ (B'B).
TEST(MatrixTest, KhatriRaoGramIdentity) {
  Rng rng(9);
  Matrix a = Matrix::RandomNormal(5, 3, rng);
  Matrix b = Matrix::RandomNormal(4, 3, rng);
  Matrix kr = KhatriRao(a, b);
  ASSERT_EQ(kr.rows(), 20);
  Matrix lhs = MultiplyTransposeA(kr, kr);
  Matrix rhs = Hadamard(MultiplyTransposeA(a, a), MultiplyTransposeA(b, b));
  EXPECT_LT(MaxAbsDiff(lhs, rhs), 1e-10);
}

TEST(MatrixTest, KhatriRaoRowLayout) {
  // Row (i*K + k) of A ⊙ B must equal A(i,:) ∗ B(k,:).
  Rng rng(10);
  Matrix a = Matrix::RandomNormal(3, 2, rng);
  Matrix b = Matrix::RandomNormal(2, 2, rng);
  Matrix kr = KhatriRao(a, b);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t k = 0; k < 2; ++k) {
      for (int64_t r = 0; r < 2; ++r) {
        EXPECT_DOUBLE_EQ(kr(i * 2 + k, r), a(i, r) * b(k, r));
      }
    }
  }
}

TEST(MatrixTest, AddSubtractScale) {
  Rng rng(11);
  Matrix a = Matrix::RandomNormal(3, 3, rng);
  Matrix b = Matrix::RandomNormal(3, 3, rng);
  EXPECT_LT(MaxAbsDiff(Subtract(Add(a, b), b), a), 1e-12);
  EXPECT_LT(MaxAbsDiff(Scale(a, 2.0), Add(a, a)), 1e-12);
}

TEST(MatrixTest, RowTimesMatrix) {
  Rng rng(12);
  Matrix m = Matrix::RandomNormal(3, 4, rng);
  const double row[3] = {1.0, -2.0, 0.5};
  double out[4];
  RowTimesMatrix(row, m, out);
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(out[j], row[0] * m(0, j) + row[1] * m(1, j) + row[2] * m(2, j),
                1e-12);
  }
}

/// A = L L' by the textbook (i, j)-indexed column formula: the reference
/// the library's U'U factor is checked against.
Matrix TextbookCholesky(const Matrix& a) {
  const int64_t n = a.rows();
  Matrix lower(n, n);
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t i = j; i < n; ++i) {
      double sum = a(i, j);
      for (int64_t k = 0; k < j; ++k) sum -= lower(i, k) * lower(j, k);
      SNS_CHECK(i != j || sum > 0.0);
      lower(i, j) = i == j ? std::sqrt(sum) : sum / lower(j, j);
    }
  }
  return lower;
}

/// x = A⁻¹ b through CholeskyFactorizeUpperInto + CholeskySolveUpperInPlace.
std::vector<double> CholeskySolve(const Matrix& a, std::vector<double> b) {
  Matrix upper(a.rows(), a.rows());
  SNS_CHECK(CholeskyFactorizeUpperInto(a, upper));
  CholeskySolveUpperInPlace(upper, b.data());
  return b;
}

TEST(CholeskyTest, ReconstructsFactorization) {
  Rng rng(13);
  Matrix a = RandomSpd(6, rng);
  const Matrix lower = TextbookCholesky(a);
  EXPECT_LT(MaxAbsDiff(Multiply(lower, lower.Transposed()), a), 1e-9);
  Matrix upper(6, 6);  // Zero below the diagonal, as the slots leave it.
  ASSERT_TRUE(CholeskyFactorizeUpperInto(a, upper));
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < i; ++j) upper(i, j) = 0.0;
  }
  EXPECT_LT(MaxAbsDiff(Multiply(upper.Transposed(), upper), a), 1e-9);
  EXPECT_LT(MaxAbsDiff(upper, lower.Transposed()), 1e-9);
}

TEST(CholeskyTest, SolveRecoversSolution) {
  Rng rng(14);
  Matrix a = RandomSpd(5, rng);
  std::vector<double> x_true = {1, -2, 3, 0.5, -0.25};
  std::vector<double> b(5, 0.0);
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t j = 0; j < 5; ++j) b[i] += a(i, j) * x_true[j];
  }
  std::vector<double> x = CholeskySolve(a, b);
  for (int64_t i = 0; i < 5; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

// --- GramSolver ridge fallback ---------------------------------------------

// H = V·diag(d)·V' with V = I − (2/n)·11' (a Householder reflector: exact
// entries for n a power of two) and dyadic d, so H, its null space and
// b = Σ β_k v_k are all exact.
struct SingularGram {
  Matrix h;
  std::vector<double> b;
  std::vector<double> min_norm_x;  // Σ_{d_k > 0} β_k / d_k · v_k.
};

SingularGram MakeSingularGram(int64_t n, int64_t nullity) {
  Matrix v = Matrix::Identity(n);
  const double scale = 2.0 / static_cast<double>(n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) v(i, j) -= scale;
  }
  SingularGram g{Matrix(n, n), std::vector<double>(n, 0.0),
                 std::vector<double>(n, 0.0)};
  for (int64_t k = 0; k < n; ++k) {
    const double d = k < n - nullity ? 1.0 + 0.25 * static_cast<double>(k)
                                     : 0.0;
    const double beta = d > 0.0 ? 0.5 * static_cast<double>(k % 3) + 1.0 : 0.0;
    for (int64_t i = 0; i < n; ++i) {
      g.b[i] += beta * v(i, k);
      if (d > 0.0) g.min_norm_x[i] += beta / d * v(i, k);
      for (int64_t j = 0; j < n; ++j) g.h(i, j) += d * v(i, k) * v(j, k);
    }
  }
  return g;
}

TEST(GramSolverRidgeTest, SingularPsdMatchesMinimumNormSolution) {
  for (const int64_t n : {4, 8, 16}) {
    const SingularGram g = MakeSingularGram(n, n / 4);
    GramSolver solver;
    EXPECT_FALSE(solver.Factorize(g.h)) << "n = " << n;
    std::vector<double> x(n);
    solver.Solve(g.b.data(), x.data());
    double err = 0.0, norm = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      err += (x[i] - g.min_norm_x[i]) * (x[i] - g.min_norm_x[i]);
      norm += g.min_norm_x[i] * g.min_norm_x[i];
    }
    EXPECT_LT(std::sqrt(err), 1e-6 * std::sqrt(norm)) << "n = " << n;
  }
}

TEST(GramSolverRidgeTest, ZeroGramSolvesToZero) {
  GramSolver solver;
  EXPECT_FALSE(solver.Factorize(Matrix(5, 5)));
  std::vector<double> b = {1, 2, 3, 4, 5};
  std::vector<double> x(5, 7.0);
  solver.Solve(b.data(), x.data());
  for (const double v : x) EXPECT_EQ(v, 0.0);
}

TEST(GramSolverRidgeTest, NonFiniteGramSolvesToZero) {
  const double kInf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    for (const bool diagonal : {true, false}) {
      Rng rng(46);
      Matrix h = RandomSpd(4, rng);
      if (diagonal) {
        h(2, 2) = bad;
      } else {
        h(1, 3) = bad;
        h(3, 1) = bad;
      }
      GramSolver solver;
      EXPECT_FALSE(solver.Factorize(h));
      std::vector<double> b = {1, 2, 3, 4};
      std::vector<double> x(4, 7.0);
      solver.Solve(b.data(), x.data());
      for (const double v : x) EXPECT_EQ(v, 0.0) << bad << " " << diagonal;
    }
  }
}

TEST(GramSolverRidgeTest, IndefiniteGramTakesTheLastRung) {
  // diag(2, −1): trace 1 > 0 but λ = −1, which the trace-relative rung
  // cannot lift. diag(1, −1): zero trace, yet no zero matrix. The
  // Gershgorin rung ridges both with δ = 2·n·max|h_ij|.
  struct Case {
    double h00, h11, x0, x1;
  };
  for (const Case& c : {Case{2.0, -1.0, 1.0 / 10.0, 1.0 / 7.0},
                        Case{1.0, -1.0, 1.0 / 5.0, 1.0 / 3.0}}) {
    Matrix h(2, 2);
    h(0, 0) = c.h00;
    h(1, 1) = c.h11;
    GramSolver solver;
    EXPECT_FALSE(solver.Factorize(h));
    const double b[2] = {1.0, 1.0};
    double x[2];
    solver.Solve(b, x);
    EXPECT_NEAR(x[0], c.x0, 1e-15) << c.h00;
    EXPECT_NEAR(x[1], c.x1, 1e-15) << c.h00;
  }
}

TEST(GramSolverRidgeTest, IgnoresGarbageBelowTheDiagonal) {
  Rng rng(47);
  const SingularGram singular = MakeSingularGram(8, 2);
  const Matrix regular = RandomSpd(8, rng);
  for (const Matrix* h : {&singular.h, &regular}) {
    Matrix dirty = *h;
    for (int64_t i = 1; i < 8; ++i) {
      for (int64_t j = 0; j < i; ++j) {
        dirty(i, j) = j % 2 == 0 ? std::numeric_limits<double>::quiet_NaN()
                                 : rng.Normal() * 1e6;
      }
    }
    GramSolver clean_solver, dirty_solver;
    EXPECT_EQ(clean_solver.Factorize(*h), dirty_solver.Factorize(dirty));
    std::vector<double> x_clean(8), x_dirty(8);
    clean_solver.Solve(singular.b.data(), x_clean.data());
    dirty_solver.Solve(singular.b.data(), x_dirty.data());
    for (int64_t i = 0; i < 8; ++i) EXPECT_EQ(x_clean[i], x_dirty[i]);
  }
}

// --- In-place hot-path kernels ---------------------------------------------

TEST(InPlaceKernelsTest, HadamardIntoMatchesHadamard) {
  Rng rng(41);
  Matrix a = Matrix::RandomNormal(4, 3, rng);
  Matrix b = Matrix::RandomNormal(4, 3, rng);
  Matrix expected = Hadamard(a, b);
  Matrix out(4, 3);
  HadamardInto(a, b, out);
  EXPECT_EQ(MaxAbsDiff(out, expected), 0.0);
  // Aliasing out with an input is allowed.
  HadamardInto(a, b, a);
  EXPECT_EQ(MaxAbsDiff(a, expected), 0.0);
}

TEST(InPlaceKernelsTest, HadamardAccumulateMatchesHadamard) {
  Rng rng(42);
  Matrix a = Matrix::RandomNormal(3, 3, rng);
  Matrix b = Matrix::RandomNormal(3, 3, rng);
  Matrix expected = Hadamard(a, b);
  HadamardAccumulate(a, b);
  EXPECT_EQ(MaxAbsDiff(a, expected), 0.0);
}

TEST(InPlaceKernelsTest, AddOuterProduct) {
  Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(1, 1) = 2.0;
  // Padded contract: u and v span m.stride() doubles, padding at 0.0.
  const double u[4] = {2.0, -1.0, 0.0, 0.0};
  const double v[4] = {3.0, 4.0, 0.0, 0.0};
  AddOuterProduct(m, u, v);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0 + 6.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
  EXPECT_DOUBLE_EQ(m(1, 0), -3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 2.0 - 4.0);
}

TEST(InPlaceKernelsTest, MultiplyTransposeAIntoMatchesAllocatingForm) {
  Rng rng(43);
  Matrix a = Matrix::RandomNormal(6, 4, rng);
  Matrix b = Matrix::RandomNormal(6, 3, rng);
  Matrix expected = MultiplyTransposeA(a, b);
  Matrix out(4, 3);
  out.Fill(99.0);  // Must be fully overwritten.
  MultiplyTransposeAInto(a, b, out);
  EXPECT_EQ(MaxAbsDiff(out, expected), 0.0);
}

TEST(InPlaceKernelsTest, CholeskyFactorizeUpperIntoAndSolveUpperInPlace) {
  Rng rng(44);
  Matrix h = RandomSpd(5, rng, 1.0);
  Matrix upper(5, 5);
  upper.Fill(7.0);  // Stale garbage that must not leak into the solve.
  ASSERT_TRUE(CholeskyFactorizeUpperInto(h, upper));
  std::vector<double> b(5);
  for (int i = 0; i < 5; ++i) b[i] = rng.Normal();
  std::vector<double> x(b);
  CholeskySolveUpperInPlace(upper, x.data());
  // Residual ‖Hx − b‖ of the solve.
  double residual_sq = 0.0;
  for (int i = 0; i < 5; ++i) {
    double hx = 0.0;
    for (int j = 0; j < 5; ++j) hx += h(i, j) * x[j];
    residual_sq += (hx - b[i]) * (hx - b[i]);
  }
  EXPECT_LT(std::sqrt(residual_sq), 1e-10);
}

TEST(InPlaceKernelsTest, CholeskyFactorizeUpperIntoRejectsIndefinite) {
  Matrix a = Matrix::Identity(3);
  a(2, 2) = -1.0;
  Matrix upper(3, 3);
  EXPECT_FALSE(CholeskyFactorizeUpperInto(a, upper));
}

TEST(InPlaceKernelsTest, GramSolverReuseMatchesOneShotSolve) {
  Rng rng(45);
  Matrix h = RandomSpd(4, rng, 1.0);
  GramSolver solver;
  solver.Factorize(h);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<double> b(4), expected(4), x(4);
    for (int i = 0; i < 4; ++i) b[i] = rng.Normal();
    SolveRowAgainstGram(h, b.data(), expected.data());
    solver.Solve(b.data(), x.data());
    for (int i = 0; i < 4; ++i) EXPECT_EQ(x[i], expected[i]);
  }
}

}  // namespace
}  // namespace sns
