// Cholesky factorization for symmetric positive-definite systems: the
// solver behind every Gram row solve. A failed factorization is the
// caller's signal to ridge the system (core/gram_solve.h).

#ifndef SLICENSTITCH_LINALG_CHOLESKY_H_
#define SLICENSTITCH_LINALG_CHOLESKY_H_

#include "linalg/matrix.h"

namespace sns {

/// Factorization A = U'U with U upper-triangular in row-major storage, the
/// form GramSolver uses. Storing the transposed factor makes every inner
/// loop a contiguous row-suffix operation. Only a's upper triangle,
/// diagonal included, is read, and only U's upper triangle is meaningful:
/// entries below the diagonal are unspecified on return. Returns false on a
/// non-positive or non-finite pivot; `upper` is then partially written and
/// must not be solved against.
///
/// One call of the process tier's `cholesky_upper` slot at a's padded
/// stride (linalg/rank_dispatch.h): every tier computes the factor of the
/// right-looking row-suffix loop over its own runtime-length axpy, bit for
/// bit (CholeskyUpperRowSuffixes); the intrinsic tiers do it with the
/// working rows in registers at padded ranks up to 32.
bool CholeskyFactorizeUpperInto(const Matrix& a, Matrix& upper);

/// In-place solve A x = b against CholeskyFactorizeUpperInto's factor:
/// U' y = b by forward elimination, then U x = y by back substitution with
/// row-suffix dots. `x` holds n values (no padding needed). One call of the
/// `cholesky_solve_upper` slot with b = x; GramSolver::Solve calls the slot
/// with separate b and x.
void CholeskySolveUpperInPlace(const Matrix& upper, double* x);

}  // namespace sns

#endif  // SLICENSTITCH_LINALG_CHOLESKY_H_
