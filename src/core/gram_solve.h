// Row solve against a Gram matrix: x = b H† (Eqs. 4, 9, 12, 16).
//
// H = ∗ A'A is symmetric PSD in exact arithmetic, and the solve is a
// Cholesky solve whenever H is safely positive definite. When it is not —
// a dead or duplicated component makes H singular, or incrementally
// maintained Grams drifted indefinite — the solver factorizes the ridged
// system H + δI instead: a tiny trace-relative δ first, then, if that
// factor is still not well conditioned, a δ large enough for any H. For b
// in range(H) and the first rung's tiny δ the ridged solve agrees with the
// pseudoinverse solution to ~δ/λ_min relative.

#ifndef SLICENSTITCH_CORE_GRAM_SOLVE_H_
#define SLICENSTITCH_CORE_GRAM_SOLVE_H_

#include "linalg/matrix.h"

namespace sns {

/// Reusable Gram solver: factorize H once, then solve any number of rows
/// against it. Both the Cholesky path and the ridge fallback perform zero
/// heap allocations once the internal buffers match H's order, which makes
/// this the solver of the per-event update hot path (owned by
/// UpdateWorkspace / AlsWorkspace). Each factorization attempt is one call
/// of the process tier's `cholesky_upper` slot and each Solve one call of
/// `cholesky_solve_upper` (linalg/rank_dispatch.h), so the factor and the
/// solution are bitwise the row-suffix loops' on every tier.
class GramSolver {
 public:
  /// Factorizes symmetric `h` (order n; only its upper triangle, diagonal
  /// included, is read), replacing any previous factorization. Returns true
  /// when H itself passes Cholesky with a smallest-to-largest pivot ratio
  /// above 1e-7. Otherwise factorizes H + δI with δ = 1e-8·(tr(H)/n +
  /// 1e-12) (AddRidge) when tr(H) > 0, and if that ratio still fails, with
  /// δ = 2n·max|h_ij|, which makes any finite nonzero symmetric H positive
  /// definite; returns false. Only when even that last factorization fails
  /// (H = 0, or a NaN or ±inf entry) does Solve write x = 0.
  bool Factorize(const Matrix& h);

  /// x = b H⁻¹ (or b (H + δI)⁻¹ after a false Factorize) for the last
  /// Factorize'd H. `b` and `x` hold n values and must not alias.
  void Solve(const double* b, double* x) const;

 private:
  Matrix upper_;   // A = U'U factor (upper triangle; linalg/cholesky.h).
  Matrix ridged_;  // H + δI staging of the ridge rungs.
  bool zero_ = false;
};

/// Adds `relative · (trace(h)/n + 1e-12)` to the diagonal of the square
/// matrix `h`. GramSolver's first ridge rung uses it, and the incremental
/// baselines ridge their accumulated normal equations this way: decayed or
/// frozen history Grams go near-singular on sparse data and an
/// unregularized solve amplifies noise catastrophically.
void AddRidge(Matrix& h, double relative);

/// Computes x = b H† for symmetric PSD H (order n). `b` and `x` hold n
/// values and must not alias. One-shot convenience over GramSolver.
void SolveRowAgainstGram(const Matrix& h, const double* b, double* x);

/// Computes X = B H† for a full matrix of right-hand rows (B is m×n, H is
/// n×n). Used by batch ALS / SNS-MAT.
Matrix SolveRowsAgainstGram(const Matrix& h, const Matrix& b);

}  // namespace sns

#endif  // SLICENSTITCH_CORE_GRAM_SOLVE_H_
