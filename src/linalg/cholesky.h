// Cholesky factorization for symmetric positive-definite systems: the
// solver behind every Gram row solve. A failed factorization is the
// caller's signal to ridge the system (core/gram_solve.h).

#ifndef SLICENSTITCH_LINALG_CHOLESKY_H_
#define SLICENSTITCH_LINALG_CHOLESKY_H_

#include "linalg/matrix.h"

namespace sns {

/// Allocation-free factorization into a caller-owned n×n `lower` (only the
/// lower triangle including the diagonal is written and later read; entries
/// above the diagonal are left untouched, so a reused buffer may carry stale
/// values there). Returns false when a non-positive or non-finite pivot is
/// found — `lower` is then partially written and must not be solved against.
bool CholeskyFactorizeInto(const Matrix& a, Matrix& lower);

/// In-place solve A x = b against a factorization produced by
/// CholeskyFactorizeInto: `x` holds b on entry and the solution on exit
/// (n = lower order values).
void CholeskySolveInPlace(const Matrix& lower, double* x);

/// Right-looking factorization A = U'U with U upper-triangular in row-major
/// storage — the hot-path form used by GramSolver. Storing the transposed
/// factor makes every inner loop a CONTIGUOUS row-suffix operation: the
/// trailing update subtracts u_ki · U(k, i..n) from U(i, i..n) (an
/// independent-element axpy the autovectorizer handles at full width),
/// where the classic lower/left-looking form walks strided columns or
/// latency-bound sequential dots. Only the upper triangle including the
/// diagonal is written and later read; entries below the diagonal may
/// carry stale values in a reused buffer. Returns false on a non-positive
/// or non-finite pivot. Rounds differently than CholeskyFactorizeInto
/// (incremental vs deferred subtraction), so the two factorization paths
/// agree to solver tolerance, not bitwise.
///
/// Both functions run the suffix axpys/dots through the process tier's
/// RUNTIME-LENGTH table, GetRankKernelTable(0): the row suffixes are
/// unaligned and of arbitrary length.
bool CholeskyFactorizeUpperInto(const Matrix& a, Matrix& upper);

/// In-place solve A x = b against CholeskyFactorizeUpperInto's factor:
/// U' y = b by forward elimination over row suffixes of U, then U x = y by
/// back substitution with contiguous row-suffix dots.
void CholeskySolveUpperInPlace(const Matrix& upper, double* x);

}  // namespace sns

#endif  // SLICENSTITCH_LINALG_CHOLESKY_H_
