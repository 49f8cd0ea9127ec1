#include "core/gram_solve.h"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.h"
#include "linalg/rank_dispatch.h"

namespace sns {
namespace {

// Minimum acceptable ratio between the smallest and largest Cholesky pivot:
// below this the Gram is treated as numerically singular and ridged.
constexpr double kPivotRatioFloor = 1e-7;

// Trace-relative ridge factor (AddRidge) of the first fallback rung.
// c ≈ √ε balances the ridge's bias (δ/λ on an eigenvalue λ of H) against
// the rounding its 1/δ amplification of range(H)'s complement lets into
// the solution (~ε·‖H‖/δ). For PSD H it passes the floor, as
// λ_min(H + δI) ≥ δ bounds the pivot ratio² below by c/(n + c). Every H
// the solver keeps is PSD up to rounding (resynced or per-sweep Grams, the
// floored GCP Hessian), so the last rung only catches an indefinite, zero
// or non-finite H.
constexpr double kRidge = 1e-8;

bool FactorIsWellConditioned(const Matrix& factor) {
  double min_pivot = factor(0, 0), max_pivot = factor(0, 0);
  for (int64_t i = 1; i < factor.rows(); ++i) {
    min_pivot = std::min(min_pivot, factor(i, i));
    max_pivot = std::max(max_pivot, factor(i, i));
  }
  return max_pivot > 0.0 && min_pivot / max_pivot > kPivotRatioFloor;
}

}  // namespace

bool GramSolver::Factorize(const Matrix& h) {
  const int64_t n = h.rows();
  if (upper_.rows() != n) {
    upper_ = Matrix(n, n);
    ridged_ = Matrix(n, n);
  }
  zero_ = false;
  // Row-suffix (U'U) factorization: every inner loop contiguous — see
  // CholeskyFactorizeUpperInto.
  if (CholeskyFactorizeUpperInto(h, upper_) &&
      FactorIsWellConditioned(upper_)) {
    return true;
  }

  double trace = 0.0, max_abs = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    trace += h(i, i);
    for (int64_t j = i; j < n; ++j) {
      max_abs = std::max(max_abs, std::abs(h(i, j)));
    }
  }
  auto stage_upper = [&] {
    for (int64_t i = 0; i < n; ++i) {
      std::copy(h.Row(i) + i, h.Row(i) + n, ridged_.Row(i) + i);
    }
  };
  // At tr(H) ≤ 0 AddRidge's δ is at most 1e-20, which passes the floor for
  // H = 0 and solves to b·1e20; such H go straight to the last rung.
  if (trace > 0.0) {
    stage_upper();
    AddRidge(ridged_, kRidge);
    if (CholeskyFactorizeUpperInto(ridged_, upper_) &&
        FactorIsWellConditioned(upper_)) {
      return false;
    }
  }
  // Last rung. Every eigenvalue of H lies within n·max|h_ij| of zero
  // (Gershgorin), so H + 2n·max|h_ij|·I has condition number at most 3.
  // Only H = 0 (δ = 0) and a non-finite H fail this Cholesky; they solve
  // to x = 0.
  stage_upper();
  const double delta = 2.0 * static_cast<double>(n) * max_abs;
  for (int64_t i = 0; i < n; ++i) ridged_(i, i) += delta;
  zero_ = !CholeskyFactorizeUpperInto(ridged_, upper_);
  return false;
}

void GramSolver::Solve(const double* b, double* x) const {
  const int64_t n = upper_.rows();
  if (zero_) {
    std::fill(x, x + n, 0.0);
    return;
  }
  // H symmetric: b H⁻¹ == (H⁻¹ b')'. One slot call, reading b in place
  // (no staging copy into x for the slot's loads to wait on).
  GetRankKernelTable(upper_.stride())
      .cholesky_solve_upper(upper_.Row(0), b, x, n, upper_.stride());
}

void AddRidge(Matrix& h, double relative) {
  SNS_CHECK(h.rows() == h.cols());
  double trace = 0.0;
  for (int64_t i = 0; i < h.rows(); ++i) trace += h(i, i);
  const double ridge =
      relative * (trace / static_cast<double>(h.rows()) + 1e-12);
  for (int64_t i = 0; i < h.rows(); ++i) h(i, i) += ridge;
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
