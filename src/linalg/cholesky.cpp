#include "linalg/cholesky.h"

#include "linalg/rank_dispatch.h"

namespace sns {

bool CholeskyFactorizeUpperInto(const Matrix& a, Matrix& upper) {
  SNS_CHECK(a.rows() == a.cols());
  SNS_CHECK(upper.rows() == a.rows() && upper.cols() == a.rows());
  if (a.rows() == 0) return true;
  return GetRankKernelTable(a.stride())
      .cholesky_upper(a.Row(0), upper.Row(0), a.rows(), a.stride());
}

void CholeskySolveUpperInPlace(const Matrix& upper, double* x) {
  if (upper.rows() == 0) return;
  GetRankKernelTable(upper.stride())
      .cholesky_solve_upper(upper.Row(0), x, x, upper.rows(), upper.stride());
}

}  // namespace sns
