#include "core/gram_solve.h"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.h"
#include "linalg/pseudo_inverse.h"

namespace sns {
namespace {

// Minimum acceptable ratio between the smallest and largest Cholesky pivot:
// below this the Gram is treated as numerically singular and the
// pseudoinverse path is used instead.
constexpr double kPivotRatioFloor = 1e-7;

bool FactorIsWellConditioned(const Matrix& factor) {
  double min_pivot = factor(0, 0), max_pivot = factor(0, 0);
  for (int64_t i = 1; i < factor.rows(); ++i) {
    min_pivot = std::min(min_pivot, factor(i, i));
    max_pivot = std::max(max_pivot, factor(i, i));
  }
  return max_pivot > 0.0 && min_pivot / max_pivot > kPivotRatioFloor;
}

}  // namespace

void GramSolver::Factorize(const Matrix& h) {
  const int64_t n = h.rows();
  if (upper_.rows() != n) upper_ = Matrix(n, n);
  // Row-suffix (U'U) factorization: every inner loop contiguous — see
  // CholeskyFactorizeUpperInto.
  use_pinv_ = !(CholeskyFactorizeUpperInto(h, upper_) &&
                FactorIsWellConditioned(upper_));
  if (use_pinv_) pinv_ = PseudoInverseSymmetric(h);
}

void GramSolver::Solve(const double* b, double* x) const {
  if (use_pinv_) {
    RowTimesMatrix(b, pinv_, x);
    return;
  }
  // H symmetric: b H† == (H⁻¹ b')' for nonsingular H.
  const int64_t n = upper_.rows();
  std::copy(b, b + n, x);
  CholeskySolveUpperInPlace(upper_, x);
}

void SolveRowAgainstGram(const Matrix& h, const double* b, double* x) {
  GramSolver solver;
  solver.Factorize(h);
  solver.Solve(b, x);
}

Matrix SolveRowsAgainstGram(const Matrix& h, const Matrix& b) {
  SNS_CHECK(b.cols() == h.rows());
  GramSolver solver;
  solver.Factorize(h);
  Matrix x(b.rows(), b.cols());
  for (int64_t i = 0; i < b.rows(); ++i) solver.Solve(b.Row(i), x.Row(i));
  return x;
}

}  // namespace sns
